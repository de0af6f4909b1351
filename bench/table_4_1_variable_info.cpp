// Table 4.1: information extracted per variable (post Stage 3) for the
// paper's Example Code 4.1.
//
// Known deltas vs the thesis table (documented in EXPERIMENTS.md): our
// counts are uniformly static occurrence counts — the thesis mixes static
// and estimated counts (e.g. rc wr=3 is 1 static write times the loop trip
// count 3; we report both conventions).
#include <cstdio>

#include "translator/translator.h"
#include "workloads/benchmark.h"

namespace {

const char* const kExample41 = R"(#include <stdio.h>
#include <pthread.h>

int global;
int *ptr;
int sum[3] = {0};

void *tf(void *tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for (local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *)local);
    }
    for (local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
)";

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: table_4_1_variable_info (takes no arguments)\n");
    return 2;
  }
  hsm::translator::Translator translator;
  const auto result = translator.analyzeOnly(kExample41, "example_4_1.c");
  if (!result.ok) {
    std::printf("analysis failed:\n%s\n", result.diagnostics.c_str());
    return 1;
  }
  std::printf("Table 4.1 — Information Extracted Per Variable (Post Stage 3)\n\n%s\n",
              result.variableTable().c_str());

  std::printf("Loop-weighted access estimates (Stage 4 inputs):\n");
  std::printf("%-12s %14s %14s\n", "Variable", "est. reads", "est. writes");
  for (const auto* v : result.analysis.ordered()) {
    std::printf("%-12s %14.0f %14.0f\n", v->name.c_str(), v->weighted_reads,
                v->weighted_writes);
  }

  // Also run every benchmark's pthread source through the analyzer to show
  // the table generalizes beyond the worked example.
  std::printf("\nShared variables identified per benchmark program:\n");
  for (const std::string& name : hsm::workloads::pthreadSourceNames()) {
    const auto r = translator.analyzeOnly(hsm::workloads::pthreadSource(name), name);
    if (!r.ok) {
      std::fprintf(stderr, "%s: analysis failed:\n%s\n", name.c_str(), r.diagnostics.c_str());
      return 1;
    }
    std::printf("  %-12s:", name.c_str());
    for (const auto* v : r.analysis.sharedVariables()) std::printf(" %s", v->name.c_str());
    std::printf("\n");
  }
  return 0;
}
