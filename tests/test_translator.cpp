// End-to-end translator tests: Stage 5 pass behaviour on the paper's
// Example Code 4.1 (expected output: Example Code 4.2) and structural
// checks over every benchmark's pthread source.
#include <gtest/gtest.h>

#include "translator/translator.h"
#include "workloads/benchmark.h"

namespace hsm::translator {
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

TranslationResult translateExample(bool offchip_only = true) {
  TranslatorOptions options;
  options.offchip_only = offchip_only;
  Translator translator(options);
  return translator.translate(kExample41, "example_4_1.c");
}

TEST(TranslatorExample41, Succeeds) {
  const TranslationResult r = translateExample();
  EXPECT_TRUE(r.ok) << r.diagnostics;
}

TEST(TranslatorExample41, MainBecomesRcceApp) {
  const std::string out = translateExample().output_source;
  EXPECT_NE(out.find("int RCCE_APP(int *argc, char **argv)"), std::string::npos) << out;
  EXPECT_EQ(out.find("int main("), std::string::npos);
}

TEST(TranslatorExample41, InitAndFinalizeInserted) {
  const std::string out = translateExample().output_source;
  EXPECT_NE(out.find("RCCE_init(&argc, &argv);"), std::string::npos);
  const auto finalize_pos = out.find("RCCE_finalize();");
  const auto return_pos = out.rfind("return 0;");
  ASSERT_NE(finalize_pos, std::string::npos);
  ASSERT_NE(return_pos, std::string::npos);
  EXPECT_LT(finalize_pos, return_pos) << "finalize must precede the return";
}

TEST(TranslatorExample41, SharedVariablesBecomeShmalloc) {
  const std::string out = translateExample().output_source;
  EXPECT_NE(out.find("sum = (int*)RCCE_shmalloc(sizeof(int) * 3);"), std::string::npos)
      << out;
  EXPECT_NE(out.find("ptr = (int*)RCCE_shmalloc(sizeof(int) * 1);"), std::string::npos);
  // The array declaration decays to a pointer at file scope.
  EXPECT_NE(out.find("int *sum;"), std::string::npos);
}

TEST(TranslatorExample41, OnChipPlanUsesRcceMalloc) {
  const TranslationResult r = translateExample(/*offchip_only=*/false);
  // Everything fits the 8 KB MPB, so Algorithm 3 places it all on-chip.
  EXPECT_NE(r.output_source.find("RCCE_malloc("), std::string::npos);
  EXPECT_EQ(r.output_source.find("RCCE_shmalloc("), std::string::npos);
}

TEST(TranslatorExample41, CoreIdReplacesThreadLaunchLoop) {
  const std::string out = translateExample().output_source;
  EXPECT_NE(out.find("myID = RCCE_ue();"), std::string::npos);
  EXPECT_NE(out.find("tf((void*)myID);"), std::string::npos);
  EXPECT_EQ(out.find("pthread_create"), std::string::npos);
}

TEST(TranslatorExample41, JoinLoopBecomesBarrierPlusPerCoreEpilogue) {
  const std::string out = translateExample().output_source;
  const auto barrier_pos = out.find("RCCE_barrier(&RCCE_COMM_WORLD);");
  const auto printf_pos = out.find("printf(\"Sum Array: %d\\n\", sum[myID]);");
  ASSERT_NE(barrier_pos, std::string::npos) << out;
  ASSERT_NE(printf_pos, std::string::npos) << out;
  EXPECT_LT(barrier_pos, printf_pos);
  EXPECT_EQ(out.find("pthread_join"), std::string::npos);
}

TEST(TranslatorExample41, UnusedGlobalRemoved) {
  const std::string out = translateExample().output_source;
  EXPECT_EQ(out.find("int global;"), std::string::npos);
}

TEST(TranslatorExample41, DeadLocalsRemoved) {
  const std::string out = translateExample().output_source;
  EXPECT_EQ(out.find("int rc"), std::string::npos);
  EXPECT_EQ(out.find("pthread_t threads"), std::string::npos);
  EXPECT_EQ(out.find("int local"), std::string::npos);
}

TEST(TranslatorExample41, IncludeSwapped) {
  const std::string out = translateExample().output_source;
  EXPECT_NE(out.find("#include \"RCCE.h\""), std::string::npos);
  EXPECT_EQ(out.find("pthread.h"), std::string::npos);
  EXPECT_NE(out.find("#include <stdio.h>"), std::string::npos);
}

TEST(TranslatorExample41, ThreadFunctionBodyPreserved) {
  const std::string out = translateExample().output_source;
  EXPECT_NE(out.find("sum[tLocal] += tLocal;"), std::string::npos);
  EXPECT_NE(out.find("sum[tLocal] += *ptr;"), std::string::npos);
  EXPECT_EQ(out.find("pthread_exit"), std::string::npos);
}

// An off-chip-only translation shmallocs every shared variable, so its
// execution plan is the one an off-chip run realizes: no region on chip,
// from translate and from analyzeOnly alike.
TEST(Translator, OffChipOnlyPlanKeepsEveryRegionOffChip) {
  TranslatorOptions options;
  options.offchip_only = true;
  const Translator translator(options);
  for (const std::string& name : workloads::pthreadSourceNames()) {
    const std::string source = workloads::pthreadSource(name);
    const TranslationResult translated = translator.translate(source, name + ".c");
    const TranslationResult analyzed = translator.analyzeOnly(source, name + ".c");
    ASSERT_TRUE(translated.ok) << name << translated.diagnostics;
    ASSERT_TRUE(analyzed.ok) << name << analyzed.diagnostics;
    EXPECT_FALSE(translated.execution_plan.regions.empty()) << name;
    for (const TranslationResult* r : {&translated, &analyzed}) {
      for (const partition::RegionPlan& region : r->execution_plan.regions) {
        EXPECT_FALSE(partition::isOnChip(region.placement)) << name << " " << region.name;
      }
    }
    EXPECT_EQ(translated.output_source.find("RCCE_malloc("), std::string::npos) << name;
    EXPECT_NE(translated.output_source.find("RCCE_shmalloc("), std::string::npos) << name;
  }
}

TEST(Translator, MutexBecomesTasLock) {
  Translator translator;
  const TranslationResult r =
      translator.translate(workloads::pthreadSource("PiApprox"), "pi.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  EXPECT_NE(r.output_source.find("RCCE_acquire_lock(0)"), std::string::npos)
      << r.output_source;
  EXPECT_NE(r.output_source.find("RCCE_release_lock(0)"), std::string::npos);
  EXPECT_EQ(r.output_source.find("pthread_mutex_lock"), std::string::npos);
  EXPECT_EQ(r.output_source.find("pthread_mutex_init"), std::string::npos);
  EXPECT_EQ(r.output_source.find("pthread_mutex_t"), std::string::npos);
}

TEST(Translator, BarrierWaitBecomesRcceBarrier) {
  Translator translator;
  const TranslationResult r =
      translator.translate(workloads::pthreadSource("LU"), "lu.c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  EXPECT_NE(r.output_source.find("RCCE_barrier(&RCCE_COMM_WORLD)"), std::string::npos);
  EXPECT_EQ(r.output_source.find("pthread_barrier_wait"), std::string::npos);
  EXPECT_EQ(r.output_source.find("pthread_barrier_t"), std::string::npos);
}

TEST(Translator, MissingMainIsError) {
  Translator translator;
  const TranslationResult r = translator.translate("int x;", "nomain.c");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diagnostics.find("main"), std::string::npos);
}

TEST(Translator, ParseErrorPropagates) {
  Translator translator;
  const TranslationResult r = translator.translate("int main( {", "bad.c");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.diagnostics.empty());
}

TEST(Translator, AnalyzeOnlyProducesTablesWithoutTransforming) {
  Translator translator;
  const TranslationResult r = translator.analyzeOnly(kExample41, "e.c");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.output_source.empty());
  EXPECT_NE(r.variableTable().find("tLocal"), std::string::npos);
  EXPECT_NE(r.sharingTable().find("tmp"), std::string::npos);
}

// --- structural checks across the whole benchmark suite ---------------------

class SuiteTranslation : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteTranslation, ProducesCleanRcceProgram) {
  Translator translator;
  const TranslationResult r =
      translator.translate(workloads::pthreadSource(GetParam()), GetParam() + ".c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  const std::string& out = r.output_source;
  // No pthread residue of any kind.
  EXPECT_EQ(out.find("pthread_"), std::string::npos) << out;
  // The RCCE program skeleton is present and ordered.
  const auto init_pos = out.find("RCCE_init(");
  const auto ue_pos = out.find("RCCE_ue()");
  const auto finalize_pos = out.find("RCCE_finalize()");
  ASSERT_NE(init_pos, std::string::npos);
  ASSERT_NE(ue_pos, std::string::npos);
  ASSERT_NE(finalize_pos, std::string::npos);
  EXPECT_LT(init_pos, ue_pos);
  EXPECT_LT(ue_pos, finalize_pos);
  EXPECT_NE(out.find("RCCE_APP"), std::string::npos);
}

TEST_P(SuiteTranslation, SharedArraysAllocatedInSharedMemory) {
  Translator translator;
  const TranslationResult r =
      translator.translate(workloads::pthreadSource(GetParam()), GetParam() + ".c");
  ASSERT_TRUE(r.ok) << r.diagnostics;
  // Every benchmark has at least one shared variable mapped by Stage 4.
  EXPECT_FALSE(r.plan.decisions.empty());
  const bool has_alloc =
      r.output_source.find("RCCE_shmalloc(") != std::string::npos ||
      r.output_source.find("RCCE_malloc(") != std::string::npos;
  EXPECT_TRUE(has_alloc) << r.output_source;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteTranslation,
                         ::testing::Values("PiApprox", "3-5-Sum", "CountPrimes",
                                           "Stream", "DotProduct", "LU"));

}  // namespace
}  // namespace hsm::translator
