#include "codegen/c_emitter.h"

#include <sstream>
#include <vector>

namespace hsm::codegen {
namespace {

/// C operator precedence for printing (higher binds tighter).
int precedenceOf(ast::BinaryOp op) {
  using ast::BinaryOp;
  switch (op) {
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem: return 13;
    case BinaryOp::Add:
    case BinaryOp::Sub: return 12;
    case BinaryOp::Shl:
    case BinaryOp::Shr: return 11;
    case BinaryOp::Lt:
    case BinaryOp::Gt:
    case BinaryOp::Le:
    case BinaryOp::Ge: return 10;
    case BinaryOp::Eq:
    case BinaryOp::Ne: return 9;
    case BinaryOp::BitAnd: return 8;
    case BinaryOp::BitXor: return 7;
    case BinaryOp::BitOr: return 6;
    case BinaryOp::LogicalAnd: return 5;
    case BinaryOp::LogicalOr: return 4;
    case BinaryOp::Assign:
    case BinaryOp::AddAssign:
    case BinaryOp::SubAssign:
    case BinaryOp::MulAssign:
    case BinaryOp::DivAssign:
    case BinaryOp::RemAssign:
    case BinaryOp::AndAssign:
    case BinaryOp::OrAssign:
    case BinaryOp::XorAssign:
    case BinaryOp::ShlAssign:
    case BinaryOp::ShrAssign: return 2;
    case BinaryOp::Comma: return 1;
  }
  return 0;
}

const char* spellingOf(ast::BinaryOp op) {
  using ast::BinaryOp;
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Rem: return "%";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::BitAnd: return "&";
    case BinaryOp::BitOr: return "|";
    case BinaryOp::BitXor: return "^";
    case BinaryOp::LogicalAnd: return "&&";
    case BinaryOp::LogicalOr: return "||";
    case BinaryOp::Assign: return "=";
    case BinaryOp::AddAssign: return "+=";
    case BinaryOp::SubAssign: return "-=";
    case BinaryOp::MulAssign: return "*=";
    case BinaryOp::DivAssign: return "/=";
    case BinaryOp::RemAssign: return "%=";
    case BinaryOp::AndAssign: return "&=";
    case BinaryOp::OrAssign: return "|=";
    case BinaryOp::XorAssign: return "^=";
    case BinaryOp::ShlAssign: return "<<=";
    case BinaryOp::ShrAssign: return ">>=";
    case BinaryOp::Comma: return ",";
  }
  return "?";
}

const char* spellingOf(ast::UnaryOp op) {
  using ast::UnaryOp;
  switch (op) {
    case UnaryOp::Plus: return "+";
    case UnaryOp::Minus: return "-";
    case UnaryOp::LogicalNot: return "!";
    case UnaryOp::BitNot: return "~";
    case UnaryOp::Deref: return "*";
    case UnaryOp::AddrOf: return "&";
    case UnaryOp::PreInc:
    case UnaryOp::PostInc: return "++";
    case UnaryOp::PreDec:
    case UnaryOp::PostDec: return "--";
  }
  return "?";
}

constexpr int kUnaryPrecedence = 14;
constexpr int kPostfixPrecedence = 15;
constexpr int kPrimaryPrecedence = 16;
constexpr int kConditionalPrecedence = 3;

class ExprPrinter {
 public:
  explicit ExprPrinter(const CSourceEmitter& emitter) : emitter_(emitter) {}

  std::string print(const ast::Expr& expr) const { return printPrec(expr, 0); }

 private:
  /// Print `expr`, parenthesizing if its precedence is below `min_prec`.
  std::string printPrec(const ast::Expr& expr, int min_prec) const {
    int prec = kPrimaryPrecedence;
    const std::string text = render(expr, &prec);
    if (prec < min_prec) return "(" + text + ")";
    return text;
  }

  std::string render(const ast::Expr& expr, int* prec) const {
    using ast::ExprKind;
    switch (expr.kind()) {
      case ExprKind::IntLiteral:
        return static_cast<const ast::IntLiteralExpr&>(expr).spelling();
      case ExprKind::FloatLiteral:
        return static_cast<const ast::FloatLiteralExpr&>(expr).spelling();
      case ExprKind::CharLiteral:
        return static_cast<const ast::CharLiteralExpr&>(expr).spelling();
      case ExprKind::StringLiteral:
        return static_cast<const ast::StringLiteralExpr&>(expr).spelling();
      case ExprKind::DeclRef:
        return static_cast<const ast::DeclRefExpr&>(expr).name();
      case ExprKind::Unary: {
        const auto& unary = static_cast<const ast::UnaryExpr&>(expr);
        *prec = kUnaryPrecedence;
        if (unary.op() == ast::UnaryOp::PostInc || unary.op() == ast::UnaryOp::PostDec) {
          *prec = kPostfixPrecedence;
          return printPrec(*unary.operand(), kPostfixPrecedence) + spellingOf(unary.op());
        }
        // Guard `- -x` and `& &x` style juxtapositions with a space.
        const std::string operand = printPrec(*unary.operand(), kUnaryPrecedence);
        std::string op = spellingOf(unary.op());
        if (!operand.empty() && !op.empty() && operand.front() == op.back()) op += ' ';
        return op + operand;
      }
      case ExprKind::Binary: {
        const auto& binary = static_cast<const ast::BinaryExpr&>(expr);
        const int p = precedenceOf(binary.op());
        *prec = p;
        const bool right_assoc = ast::isAssignmentOp(binary.op());
        const std::string lhs = printPrec(*binary.lhs(), right_assoc ? p + 1 : p);
        const std::string rhs = printPrec(*binary.rhs(), right_assoc ? p : p + 1);
        if (binary.op() == ast::BinaryOp::Comma) return lhs + ", " + rhs;
        return lhs + " " + spellingOf(binary.op()) + " " + rhs;
      }
      case ExprKind::Conditional: {
        const auto& cond = static_cast<const ast::ConditionalExpr&>(expr);
        *prec = kConditionalPrecedence;
        return printPrec(*cond.cond(), kConditionalPrecedence + 1) + " ? " +
               printPrec(*cond.thenExpr(), 0) + " : " +
               printPrec(*cond.elseExpr(), kConditionalPrecedence);
      }
      case ExprKind::Call: {
        const auto& call = static_cast<const ast::CallExpr&>(expr);
        *prec = kPostfixPrecedence;
        std::string out = printPrec(*call.callee(), kPostfixPrecedence) + "(";
        for (std::size_t i = 0; i < call.args().size(); ++i) {
          if (i > 0) out += ", ";
          // Arguments are assignment-expressions: protect top-level commas.
          out += printPrec(*call.args()[i], 2);
        }
        return out + ")";
      }
      case ExprKind::Index: {
        const auto& index = static_cast<const ast::IndexExpr&>(expr);
        *prec = kPostfixPrecedence;
        return printPrec(*index.base(), kPostfixPrecedence) + "[" +
               printPrec(*index.index(), 0) + "]";
      }
      case ExprKind::Member: {
        const auto& member = static_cast<const ast::MemberExpr&>(expr);
        *prec = kPostfixPrecedence;
        return printPrec(*member.base(), kPostfixPrecedence) +
               (member.isArrow() ? "->" : ".") + member.member();
      }
      case ExprKind::Cast: {
        const auto& cast = static_cast<const ast::CastExpr&>(expr);
        *prec = kUnaryPrecedence;
        std::string out = "(";
        out += cast.target()->spelling();
        out += ')';
        return out + printPrec(*cast.operand(), kUnaryPrecedence);
      }
      case ExprKind::Sizeof: {
        const auto& size_of = static_cast<const ast::SizeofExpr&>(expr);
        *prec = kUnaryPrecedence;
        if (size_of.typeOperand() != nullptr) {
          return "sizeof(" + size_of.typeOperand()->spelling() + ")";
        }
        return "sizeof " + printPrec(*size_of.exprOperand(), kUnaryPrecedence);
      }
      case ExprKind::InitList: {
        const auto& init = static_cast<const ast::InitListExpr&>(expr);
        std::string out = "{";
        for (std::size_t i = 0; i < init.inits().size(); ++i) {
          if (i > 0) out += ", ";
          out += printPrec(*init.inits()[i], 2);
        }
        return out + "}";
      }
    }
    return "<expr>";
  }

  const CSourceEmitter& emitter_;
};

}  // namespace

std::string CSourceEmitter::emitDeclarator(const ast::Type* type,
                                           const std::string& name) const {
  if (type == nullptr) return name;
  // Peel array dimensions (outermost first).
  std::vector<std::size_t> dims;
  const ast::Type* t = type;
  while (t->isArray()) {
    dims.push_back(t->arrayLength());
    t = t->element();
  }
  std::string stars;
  while (t->isPointer()) {
    stars += '*';
    t = t->element();
  }
  std::string out = t->spelling();
  out += ' ';
  out += stars + name;
  for (std::size_t d : dims) {
    out += '[';
    out += std::to_string(d);
    out += ']';
  }
  return out;
}

std::string CSourceEmitter::emitExpr(const ast::Expr& expr) const {
  return ExprPrinter(*this).print(expr);
}

std::string CSourceEmitter::emitStmt(const ast::Stmt& stmt, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * options_.indent_width, ' ');
  std::ostringstream os;
  switch (stmt.kind()) {
    case ast::StmtKind::Compound: {
      const auto& compound = static_cast<const ast::CompoundStmt&>(stmt);
      os << pad << "{\n";
      for (const ast::Stmt* s : compound.body()) os << emitStmt(*s, indent + 1);
      os << pad << "}\n";
      break;
    }
    case ast::StmtKind::Decl: {
      const auto& decl_stmt = static_cast<const ast::DeclStmt&>(stmt);
      for (const ast::VarDecl* var : decl_stmt.decls()) {
        os << pad;
        if (var->storage() == ast::StorageClass::Static) os << "static ";
        if (var->storage() == ast::StorageClass::Extern) os << "extern ";
        os << emitDeclarator(var->type(), var->name());
        if (var->init() != nullptr) os << " = " << emitExpr(*var->init());
        os << ";\n";
      }
      break;
    }
    case ast::StmtKind::Expr:
      os << pad << emitExpr(*static_cast<const ast::ExprStmt&>(stmt).expr()) << ";\n";
      break;
    case ast::StmtKind::If: {
      const auto& if_stmt = static_cast<const ast::IfStmt&>(stmt);
      os << pad << "if (" << emitExpr(*if_stmt.cond()) << ")\n";
      os << emitStmt(*if_stmt.thenStmt(),
                     if_stmt.thenStmt()->kind() == ast::StmtKind::Compound ? indent
                                                                           : indent + 1);
      if (if_stmt.elseStmt() != nullptr) {
        os << pad << "else\n";
        os << emitStmt(*if_stmt.elseStmt(),
                       if_stmt.elseStmt()->kind() == ast::StmtKind::Compound ? indent
                                                                             : indent + 1);
      }
      break;
    }
    case ast::StmtKind::For: {
      const auto& for_stmt = static_cast<const ast::ForStmt&>(stmt);
      std::string init_text;
      if (for_stmt.init() != nullptr) {
        if (for_stmt.init()->kind() == ast::StmtKind::Expr) {
          init_text = emitExpr(*static_cast<const ast::ExprStmt*>(for_stmt.init())->expr());
        } else if (for_stmt.init()->kind() == ast::StmtKind::Decl) {
          // Inline single declaration: "int i = 0".
          std::string text = emitStmt(*for_stmt.init(), 0);
          while (!text.empty() && (text.back() == '\n' || text.back() == ';')) text.pop_back();
          init_text = text;
        }
      }
      os << pad << "for (" << init_text << "; "
         << (for_stmt.cond() != nullptr ? emitExpr(*for_stmt.cond()) : "") << "; "
         << (for_stmt.step() != nullptr ? emitExpr(*for_stmt.step()) : "") << ")\n";
      os << emitStmt(*for_stmt.body(),
                     for_stmt.body()->kind() == ast::StmtKind::Compound ? indent
                                                                        : indent + 1);
      break;
    }
    case ast::StmtKind::While: {
      const auto& while_stmt = static_cast<const ast::WhileStmt&>(stmt);
      os << pad << "while (" << emitExpr(*while_stmt.cond()) << ")\n";
      os << emitStmt(*while_stmt.body(),
                     while_stmt.body()->kind() == ast::StmtKind::Compound ? indent
                                                                          : indent + 1);
      break;
    }
    case ast::StmtKind::Do: {
      const auto& do_stmt = static_cast<const ast::DoStmt&>(stmt);
      os << pad << "do\n";
      os << emitStmt(*do_stmt.body(),
                     do_stmt.body()->kind() == ast::StmtKind::Compound ? indent : indent + 1);
      os << pad << "while (" << emitExpr(*do_stmt.cond()) << ");\n";
      break;
    }
    case ast::StmtKind::Return: {
      const auto& ret = static_cast<const ast::ReturnStmt&>(stmt);
      os << pad << "return";
      if (ret.value() != nullptr) os << " " << emitExpr(*ret.value());
      os << ";\n";
      break;
    }
    case ast::StmtKind::Break:
      os << pad << "break;\n";
      break;
    case ast::StmtKind::Continue:
      os << pad << "continue;\n";
      break;
    case ast::StmtKind::Null:
      os << pad << ";\n";
      break;
  }
  return os.str();
}

std::string CSourceEmitter::emit(const ast::TranslationUnit& unit) const {
  std::ostringstream os;
  for (const lex::Directive& d : unit.directives()) os << d.text << '\n';
  if (!unit.directives().empty()) os << '\n';

  for (const ast::TopLevel& tl : unit.topLevels()) {
    if (tl.kind == ast::TopLevel::Kind::Vars) {
      for (const ast::VarDecl* var : tl.vars) {
        if (var->storage() == ast::StorageClass::Static) os << "static ";
        if (var->storage() == ast::StorageClass::Extern) os << "extern ";
        os << emitDeclarator(var->type(), var->name());
        if (var->init() != nullptr) os << " = " << emitExpr(*var->init());
        os << ";\n";
      }
    } else if (tl.function != nullptr) {
      const ast::FunctionDecl& fn = *tl.function;
      os << '\n' << emitDeclarator(fn.returnType(), fn.name()) << "(";
      if (fn.params().empty()) {
        os << "void";
      } else {
        for (std::size_t i = 0; i < fn.params().size(); ++i) {
          if (i > 0) os << ", ";
          const ast::ParamDecl* p = fn.params()[i];
          os << emitDeclarator(p->type(), p->name());
        }
      }
      os << ")";
      if (fn.isDefinition()) {
        os << '\n' << emitStmt(*fn.body(), 0);
      } else {
        os << ";\n";
      }
    }
  }
  return os.str();
}

}  // namespace hsm::codegen
