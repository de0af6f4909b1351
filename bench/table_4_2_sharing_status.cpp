// Table 4.2: variables' sharing status after each analysis stage for the
// paper's Example Code 4.1, plus the full translated output (the paper's
// Example Code 4.2). Expected progression (thesis Table 4.2):
//   global: true  -> true  -> false   (unused global demoted)
//   ptr:    true  -> true  -> true
//   sum:    true  -> true  -> true
//   tLocal: null  -> false -> false
//   tid:    null  -> false -> false
//   local:  null  -> false -> false
//   tmp:    null  -> false -> true    (shared via definite points-to of ptr)
//   threads:null  -> false -> false
//   rc:     null  -> false -> false
#include <cstdio>

#include "translator/translator.h"

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
    std::fprintf(stderr, "usage: table_4_2_sharing_status (takes no arguments)\n");
    return 2;
  }
  // The paper's Example 4.2 output allocates with RCCE_shmalloc (off-chip);
  // request the off-chip-only plan to reproduce it verbatim.
  hsm::translator::TranslatorOptions options;
  options.offchip_only = true;
  hsm::translator::Translator translator(options);

  const auto result = translator.translate(kExample41, "example_4_1.c");
  if (!result.ok) {
    std::printf("translation failed:\n%s\n", result.diagnostics.c_str());
    return 1;
  }
  std::printf("Table 4.2 — Variables Sharing Status\n\n%s\n",
              result.sharingTable().c_str());
  std::printf("Example Code 4.2 — translated RCCE source:\n\n%s",
              result.output_source.c_str());
  return 0;
}
