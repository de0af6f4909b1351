// Unit tests for individual Stage 5 transform passes (Algorithms 4–10) and
// the AST-editing utilities they are built on.
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "codegen/c_emitter.h"
#include "parse/parser.h"
#include "sema/resolver.h"
#include "transform/ast_edit.h"
#include "transform/cleanup.h"
#include "transform/pass.h"
#include "transform/pthread_removal.h"
#include "transform/rcce_insertion.h"
#include "transform/threads_to_processes.h"

namespace hsm::transform {
namespace {

/// Shared harness: parse + resolve + analyze, then run a chosen pass
/// pipeline and emit the result.
struct Harness {
  explicit Harness(const std::string& text) {
    SourceBuffer buffer("t.c", text);
    DiagnosticEngine parse_diags;
    EXPECT_TRUE(parse::parseSource(buffer, context, parse_diags))
        << parse_diags.format(buffer);
    sema::Resolver resolver(parse_diags);
    EXPECT_TRUE(resolver.resolve(context));
    analysis::Analyzer analyzer;
    result = analyzer.analyze(context);
    plan = partition::SizeAscendingPlanner{}.plan(result.sharedVariables(),
                                                  partition::HsmMemorySpec{});
  }

  bool runPasses(Driver& driver) {
    PassContext pass_ctx{.ast = context,
                         .analysis = result,
                         .plan = plan,
                         .diags = diags,
                         .core_bound_tasks = {}};
    const bool ok = driver.runAll(pass_ctx);
    last_ctx_entry = pass_ctx.entry;
    return ok;
  }

  std::string emit() {
    codegen::CSourceEmitter emitter;
    return emitter.emit(context.unit());
  }

  ast::ASTContext context;
  analysis::AnalysisResult result;
  partition::MemoryPlan plan;
  DiagnosticEngine diags;
  ast::FunctionDecl* last_ctx_entry = nullptr;
};

Driver skeletonPasses() {
  Driver driver;
  driver.add(std::make_unique<RenameMainPass>());
  driver.add(std::make_unique<AddRcceInitPass>());
  driver.add(std::make_unique<InsertCoreIdPass>());
  return driver;
}

TEST(RenameMainPass, RenamesAndAddsParams) {
  Harness h("int main() { return 0; }");
  Driver driver;
  driver.add(std::make_unique<RenameMainPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const auto* fn = h.context.unit().findFunction("RCCE_APP");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->params().size(), 2u);
  EXPECT_EQ(fn->params()[0]->name(), "argc");
  EXPECT_EQ(fn->params()[1]->name(), "argv");
  EXPECT_EQ(h.last_ctx_entry, fn);
}

TEST(RenameMainPass, FailsWithoutMain) {
  Harness h("int helper() { return 0; }");
  Driver driver;
  driver.add(std::make_unique<RenameMainPass>());
  EXPECT_FALSE(h.runPasses(driver));
}

TEST(AddRcceInitPass, InitIsFirstStatement) {
  Harness h("int main() { int x = 1; return x; }");
  Driver driver = skeletonPasses();
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  const auto init_pos = out.find("RCCE_init(&argc, &argv);");
  const auto x_pos = out.find("int x = 1;");
  ASSERT_NE(init_pos, std::string::npos);
  ASSERT_NE(x_pos, std::string::npos);
  EXPECT_LT(init_pos, x_pos);
}

TEST(AddRcceFinalizePass, BeforeTrailingReturn) {
  Harness h("int main() { return 0; }");
  Driver driver;
  driver.add(std::make_unique<RenameMainPass>());
  driver.add(std::make_unique<AddRcceFinalizePass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_LT(out.find("RCCE_finalize();"), out.find("return 0;"));
}

TEST(AddRcceFinalizePass, AppendedWhenNoReturn) {
  Harness h("int main() { f(); }");
  Driver driver;
  driver.add(std::make_unique<RenameMainPass>());
  driver.add(std::make_unique<AddRcceFinalizePass>());
  ASSERT_TRUE(h.runPasses(driver));
  EXPECT_NE(h.emit().find("RCCE_finalize();"), std::string::npos);
}

TEST(InsertCoreIdPass, DeclaresAndAssigns) {
  Harness h("int main() { return 0; }");
  Driver driver = skeletonPasses();
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("int myID;"), std::string::npos);
  EXPECT_NE(out.find("myID = RCCE_ue();"), std::string::npos);
}

TEST(ThreadsToProcesses, StandaloneTaskWrappedInCoreIdCheck) {
  Harness h(R"(
void *taskA(void *arg) { return arg; }
void *taskB(void *arg) { return arg; }
int main() {
    pthread_t t1;
    pthread_t t2;
    pthread_create(&t1, NULL, taskA, NULL);
    pthread_create(&t2, NULL, taskB, NULL);
    return 0;
}
)");
  Driver driver = skeletonPasses();
  driver.add(std::make_unique<ThreadsToProcessesPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("if (myID == 0)"), std::string::npos) << out;
  EXPECT_NE(out.find("if (myID == 1)"), std::string::npos);
  EXPECT_NE(out.find("taskA("), std::string::npos);
  EXPECT_NE(out.find("taskB("), std::string::npos);
  EXPECT_EQ(out.find("pthread_create"), std::string::npos);
}

TEST(ThreadsToProcesses, LoopLaunchHoistedAndLoopRemoved) {
  Harness h(R"(
void *tf(void *tid) { return tid; }
int main() {
    pthread_t threads[4];
    int t;
    for (t = 0; t < 4; t++) {
        pthread_create(&threads[t], NULL, tf, (void *)t);
    }
    return 0;
}
)");
  Driver driver = skeletonPasses();
  driver.add(std::make_unique<ThreadsToProcessesPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("tf((void*)myID);"), std::string::npos) << out;
  EXPECT_EQ(out.find("for (t = 0"), std::string::npos) << "empty launch loop removed";
}

TEST(ThreadsToProcesses, LoopWithOtherWorkKeepsLoop) {
  Harness h(R"(
int log[4];
void *tf(void *tid) { return tid; }
int main() {
    pthread_t threads[4];
    int t;
    for (t = 0; t < 4; t++) {
        pthread_create(&threads[t], NULL, tf, (void *)t);
        log[t] = t;
    }
    return 0;
}
)");
  Driver driver = skeletonPasses();
  driver.add(std::make_unique<ThreadsToProcessesPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("log[t] = t;"), std::string::npos) << out;
  EXPECT_NE(out.find("for (t = 0"), std::string::npos);
}

TEST(JoinToBarrier, SimpleJoinBecomesBarrier) {
  Harness h(R"(
void *tf(void *tid) { return tid; }
int main() {
    pthread_t t;
    pthread_create(&t, NULL, tf, NULL);
    pthread_join(t, NULL);
    return 0;
}
)");
  Driver driver = skeletonPasses();
  driver.add(std::make_unique<ThreadsToProcessesPass>());
  driver.add(std::make_unique<JoinToBarrierPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("RCCE_barrier(&RCCE_COMM_WORLD);"), std::string::npos);
  EXPECT_EQ(out.find("pthread_join"), std::string::npos);
}

TEST(JoinToBarrier, ConsecutiveJoinsYieldOneBarrier) {
  Harness h(R"(
void *tf(void *tid) { return tid; }
int main() {
    pthread_t t1;
    pthread_t t2;
    pthread_create(&t1, NULL, tf, NULL);
    pthread_create(&t2, NULL, tf, NULL);
    pthread_join(t1, NULL);
    pthread_join(t2, NULL);
    return 0;
}
)");
  Driver driver = skeletonPasses();
  driver.add(std::make_unique<ThreadsToProcessesPass>());
  driver.add(std::make_unique<JoinToBarrierPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  std::size_t count = 0;
  for (std::size_t pos = out.find("RCCE_barrier"); pos != std::string::npos;
       pos = out.find("RCCE_barrier", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << out;
}

TEST(ReplacePthreadSelf, BecomesRcceUe) {
  Harness h(R"(
void *tf(void *arg) {
    int me = (int)pthread_self();
    return arg;
}
int main() { return 0; }
)");
  Driver driver;
  driver.add(std::make_unique<ReplacePthreadSelfPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("RCCE_ue()"), std::string::npos);
  EXPECT_EQ(out.find("pthread_self"), std::string::npos);
}

TEST(MutexToLock, DistinctMutexesGetDistinctLockIds) {
  Harness h(R"(
pthread_mutex_t ma;
pthread_mutex_t mb;
void f() {
    pthread_mutex_lock(&ma);
    pthread_mutex_unlock(&ma);
    pthread_mutex_lock(&mb);
    pthread_mutex_unlock(&mb);
}
int main() { return 0; }
)");
  Driver driver;
  driver.add(std::make_unique<MutexToLockPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("RCCE_acquire_lock(0)"), std::string::npos);
  EXPECT_NE(out.find("RCCE_release_lock(0)"), std::string::npos);
  EXPECT_NE(out.find("RCCE_acquire_lock(1)"), std::string::npos);
  EXPECT_NE(out.find("RCCE_release_lock(1)"), std::string::npos);
}

TEST(RemovePthreadTypes, GlobalAndLocalDeclarationsDropped) {
  Harness h(R"(
pthread_mutex_t lock;
pthread_t workers[8];
int keep_me;
int main() {
    pthread_attr_t attr;
    int also_keep = 1;
    return also_keep;
}
)");
  Driver driver;
  driver.add(std::make_unique<RemovePthreadTypesPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_EQ(out.find("pthread_mutex_t"), std::string::npos);
  EXPECT_EQ(out.find("pthread_t"), std::string::npos);
  EXPECT_EQ(out.find("pthread_attr_t"), std::string::npos);
  EXPECT_NE(out.find("int keep_me;"), std::string::npos);
  EXPECT_NE(out.find("int also_keep = 1;"), std::string::npos);
}

TEST(RemovePthreadApi, StatementsWithApiCallsDropped) {
  Harness h(R"(
void *tf(void *arg) {
    pthread_exit(NULL);
    return arg;
}
int main() {
    pthread_setconcurrency(4);
    f();
    return 0;
}
)");
  Driver driver;
  driver.add(std::make_unique<RemovePthreadApiPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_EQ(out.find("pthread_exit"), std::string::npos);
  EXPECT_EQ(out.find("pthread_setconcurrency"), std::string::npos);
  EXPECT_NE(out.find("f();"), std::string::npos);
}

TEST(ReplaceIncludes, OnlyPthreadHeaderSwapped) {
  Harness h("#include <stdio.h>\n#include <pthread.h>\nint main() { return 0; }");
  Driver driver;
  driver.add(std::make_unique<ReplaceIncludesPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_NE(out.find("#include \"RCCE.h\""), std::string::npos);
  EXPECT_NE(out.find("#include <stdio.h>"), std::string::npos);
  EXPECT_EQ(out.find("pthread.h"), std::string::npos);
}

TEST(RemoveUnusedLocals, KeepsSideEffectingInitializers) {
  Harness h(R"(
int main() {
    int unused = 3;
    int kept = f();
    int used = 1;
    return used;
}
)");
  Driver driver;
  driver.add(std::make_unique<RemoveUnusedLocalsPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  EXPECT_EQ(out.find("int unused"), std::string::npos);
  EXPECT_NE(out.find("int kept = f();"), std::string::npos);
  EXPECT_NE(out.find("int used = 1;"), std::string::npos);
}

TEST(RemoveUnusedLocals, CascadesThroughDependencies) {
  Harness h(R"(
int main() {
    int a = 1;
    int b = a;
    return 0;
}
)");
  Driver driver;
  driver.add(std::make_unique<RemoveUnusedLocalsPass>());
  ASSERT_TRUE(h.runPasses(driver));
  const std::string out = h.emit();
  // b is unused; once b goes, a becomes unused too.
  EXPECT_EQ(out.find("int b"), std::string::npos);
  EXPECT_EQ(out.find("int a"), std::string::npos);
}

// --- ast_edit utilities -------------------------------------------------------

TEST(AstEdit, RemoveAndInsert) {
  Harness h("void f() { a(); b(); c(); }");
  auto* fn = h.context.unit().findFunction("f");
  auto& body = *fn->body();
  ASSERT_EQ(body.body().size(), 3u);
  ast::Stmt* second = body.body()[1];
  EXPECT_TRUE(removeStmt(body, second));
  EXPECT_EQ(body.body().size(), 2u);
  insertBefore(body, body.body()[1], second);
  EXPECT_EQ(body.body()[1], second);
  EXPECT_FALSE(removeStmt(body, nullptr));
}

TEST(AstEdit, ContainsCallFindsNestedCalls) {
  Harness h("void f() { int x = g(h(1)); }");
  auto* fn = h.context.unit().findFunction("f");
  EXPECT_TRUE(stmtContainsCall(fn->body(), "g"));
  EXPECT_TRUE(stmtContainsCall(fn->body(), "h"));
  EXPECT_FALSE(stmtContainsCall(fn->body(), "nope"));
}

TEST(AstEdit, CountAndReplaceDeclRefs) {
  Harness h("void f() { int x; x = 1; x = x + 2; }");
  auto* fn = h.context.unit().findFunction("f");
  // Find the decl through the analysis result.
  const analysis::VariableInfo* info = h.result.findByName("x");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(countDeclRefs(fn->body(), info->decl), 3u);

  auto* replacement = h.context.makeDecl<ast::VarDecl>(
      "y", h.context.types().intType(), SourceLoc{});
  EXPECT_EQ(replaceDeclRefs(fn->body(), info->decl, replacement), 3u);
  EXPECT_EQ(countDeclRefs(fn->body(), replacement), 3u);
  codegen::CSourceEmitter emitter;
  EXPECT_NE(emitter.emit(h.context.unit()).find("y = y + 2;"), std::string::npos);
}

TEST(Driver, ConsistencyCheckPassesOnWellFormedUnit) {
  Harness h("int main() { return 0; }");
  DiagnosticEngine diags;
  EXPECT_TRUE(Driver::checkConsistency(h.context.unit(), diags));
}

}  // namespace
}  // namespace hsm::transform
