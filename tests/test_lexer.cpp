// Unit tests: the C-subset lexer — keywords, every operator spelling,
// literals, comments, preprocessor directive capture, and error recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lex/lexer.h"

namespace hsm::lex {
namespace {

LexResult lex(const std::string& text, bool expect_clean = true) {
  // Token::text views into the SourceBuffer, so the buffer must outlive the
  // returned LexResult: park it in process-lifetime storage (test helper
  // only; a few small strings per run).
  static std::vector<std::unique_ptr<SourceBuffer>> buffers;
  buffers.push_back(std::make_unique<SourceBuffer>("test.c", text));
  SourceBuffer& buffer = *buffers.back();
  DiagnosticEngine diags;
  Lexer lexer(buffer, diags);
  LexResult result = lexer.lexAll();
  if (expect_clean) {
    EXPECT_FALSE(diags.hasErrors()) << diags.format(buffer);
  }
  return result;
}

std::vector<TokenKind> kindsOf(const LexResult& r) {
  std::vector<TokenKind> kinds;
  for (const Token& t : r.tokens) kinds.push_back(t.kind);
  return kinds;
}

TEST(Lexer, EmptyInputYieldsEof) {
  const LexResult r = lex("");
  ASSERT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0].kind, TokenKind::Eof);
}

TEST(Lexer, Identifiers) {
  const LexResult r = lex("foo _bar baz42");
  ASSERT_EQ(r.tokens.size(), 4u);
  EXPECT_EQ(r.tokens[0].text, "foo");
  EXPECT_EQ(r.tokens[1].text, "_bar");
  EXPECT_EQ(r.tokens[2].text, "baz42");
}

TEST(Lexer, KeywordsAreNotIdentifiers) {
  const LexResult r = lex("int return while");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::KwInt);
  EXPECT_EQ(r.tokens[1].kind, TokenKind::KwReturn);
  EXPECT_EQ(r.tokens[2].kind, TokenKind::KwWhile);
}

TEST(Lexer, IntegerLiterals) {
  const LexResult r = lex("0 42 0x1F 100L 7u");
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.tokens[i].kind, TokenKind::IntLiteral) << i;
}

TEST(Lexer, FloatLiterals) {
  const LexResult r = lex("1.5 0.25 3. 1e10 2.5e-3 1.0f");
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r.tokens[i].kind, TokenKind::FloatLiteral) << i;
}

TEST(Lexer, IntegerThenDotDistinctFromFloat) {
  const LexResult r = lex("a.b");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::Identifier);
  EXPECT_EQ(r.tokens[1].kind, TokenKind::Dot);
  EXPECT_EQ(r.tokens[2].kind, TokenKind::Identifier);
}

TEST(Lexer, CharLiteral) {
  const LexResult r = lex("'a' '\\n'");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::CharLiteral);
  EXPECT_EQ(r.tokens[0].text, "'a'");
  EXPECT_EQ(r.tokens[1].kind, TokenKind::CharLiteral);
}

TEST(Lexer, StringLiteralWithEscapes) {
  const LexResult r = lex(R"("hi\n" "a\"b")");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::StringLiteral);
  EXPECT_EQ(r.tokens[0].text, "\"hi\\n\"");
  EXPECT_EQ(r.tokens[1].kind, TokenKind::StringLiteral);
}

TEST(Lexer, LineComment) {
  const LexResult r = lex("a // comment here\nb");
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[1].text, "b");
}

TEST(Lexer, BlockComment) {
  const LexResult r = lex("a /* multi\nline */ b");
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[1].text, "b");
}

TEST(Lexer, UnterminatedBlockCommentIsError) {
  SourceBuffer buffer("t.c", "a /* never ends");
  DiagnosticEngine diags;
  Lexer lexer(buffer, diags);
  (void)lexer.lexAll();
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, UnterminatedStringIsError) {
  SourceBuffer buffer("t.c", "\"oops");
  DiagnosticEngine diags;
  Lexer lexer(buffer, diags);
  (void)lexer.lexAll();
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, UnknownCharacterIsErrorButRecovers) {
  SourceBuffer buffer("t.c", "a @ b");
  DiagnosticEngine diags;
  Lexer lexer(buffer, diags);
  const LexResult r = lexer.lexAll();
  EXPECT_TRUE(diags.hasErrors());
  // 'a' and 'b' still lexed.
  ASSERT_GE(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[0].text, "a");
  EXPECT_EQ(r.tokens[1].text, "b");
}

TEST(Lexer, DirectiveCaptured) {
  const LexResult r = lex("#include <stdio.h>\nint x;");
  ASSERT_EQ(r.directives.size(), 1u);
  EXPECT_EQ(r.directives[0].text, "#include <stdio.h>");
  EXPECT_EQ(r.directives[0].token_index, 0u);
}

TEST(Lexer, DirectiveBetweenTokensRecordsPosition) {
  const LexResult r = lex("int x;\n#define N 4\nint y;");
  ASSERT_EQ(r.directives.size(), 1u);
  EXPECT_EQ(r.directives[0].token_index, 3u);  // after "int x ;"
}

TEST(Lexer, TokenLocations) {
  const LexResult r = lex("int\n  x;");
  EXPECT_EQ(r.tokens[0].loc.line, 1u);
  EXPECT_EQ(r.tokens[1].loc.line, 2u);
  EXPECT_EQ(r.tokens[1].loc.column, 3u);
}

struct OperatorCase {
  const char* text;
  TokenKind kind;
};

class LexerOperatorTest : public ::testing::TestWithParam<OperatorCase> {};

TEST_P(LexerOperatorTest, LexesSingleOperator) {
  const OperatorCase& c = GetParam();
  const LexResult r = lex(c.text);
  ASSERT_EQ(r.tokens.size(), 2u) << c.text;
  EXPECT_EQ(r.tokens[0].kind, c.kind) << c.text;
  EXPECT_EQ(r.tokens[0].text, c.text);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, LexerOperatorTest,
    ::testing::Values(
        OperatorCase{"(", TokenKind::LParen}, OperatorCase{")", TokenKind::RParen},
        OperatorCase{"{", TokenKind::LBrace}, OperatorCase{"}", TokenKind::RBrace},
        OperatorCase{"[", TokenKind::LBracket}, OperatorCase{"]", TokenKind::RBracket},
        OperatorCase{";", TokenKind::Semicolon}, OperatorCase{",", TokenKind::Comma},
        OperatorCase{":", TokenKind::Colon}, OperatorCase{"?", TokenKind::Question},
        OperatorCase{"+", TokenKind::Plus}, OperatorCase{"-", TokenKind::Minus},
        OperatorCase{"*", TokenKind::Star}, OperatorCase{"/", TokenKind::Slash},
        OperatorCase{"%", TokenKind::Percent}, OperatorCase{"++", TokenKind::PlusPlus},
        OperatorCase{"--", TokenKind::MinusMinus}, OperatorCase{"&", TokenKind::Amp},
        OperatorCase{"|", TokenKind::Pipe}, OperatorCase{"^", TokenKind::Caret},
        OperatorCase{"~", TokenKind::Tilde}, OperatorCase{"!", TokenKind::Bang},
        OperatorCase{"&&", TokenKind::AmpAmp}, OperatorCase{"||", TokenKind::PipePipe},
        OperatorCase{"<", TokenKind::Less}, OperatorCase{">", TokenKind::Greater},
        OperatorCase{"<=", TokenKind::LessEqual},
        OperatorCase{">=", TokenKind::GreaterEqual},
        OperatorCase{"==", TokenKind::EqualEqual},
        OperatorCase{"!=", TokenKind::BangEqual},
        OperatorCase{"<<", TokenKind::LessLess},
        OperatorCase{">>", TokenKind::GreaterGreater},
        OperatorCase{"=", TokenKind::Assign}, OperatorCase{"+=", TokenKind::PlusAssign},
        OperatorCase{"-=", TokenKind::MinusAssign},
        OperatorCase{"*=", TokenKind::StarAssign},
        OperatorCase{"/=", TokenKind::SlashAssign},
        OperatorCase{"%=", TokenKind::PercentAssign},
        OperatorCase{"&=", TokenKind::AmpAssign},
        OperatorCase{"|=", TokenKind::PipeAssign},
        OperatorCase{"^=", TokenKind::CaretAssign},
        OperatorCase{"<<=", TokenKind::LessLessAssign},
        OperatorCase{">>=", TokenKind::GreaterGreaterAssign},
        OperatorCase{".", TokenKind::Dot}, OperatorCase{"->", TokenKind::Arrow},
        OperatorCase{"...", TokenKind::Ellipsis}));

TEST(Lexer, MaximalMunch) {
  const auto kinds = kindsOf(lex("a+++b"));
  // a ++ + b
  EXPECT_EQ(kinds[0], TokenKind::Identifier);
  EXPECT_EQ(kinds[1], TokenKind::PlusPlus);
  EXPECT_EQ(kinds[2], TokenKind::Plus);
  EXPECT_EQ(kinds[3], TokenKind::Identifier);
}

TEST(Lexer, WholeProgramTokenCount) {
  const LexResult r = lex("int main() { return 0; }");
  // int main ( ) { return 0 ; } EOF
  EXPECT_EQ(r.tokens.size(), 10u);
}

}  // namespace
}  // namespace hsm::lex
