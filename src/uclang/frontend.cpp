#include "uclang/frontend.hpp"

#include "support/hash.hpp"
#include "uclang/lexer.hpp"
#include "uclang/parser.hpp"

namespace uc::lang {

std::unique_ptr<CompilationUnit> parse_only(std::string name,
                                            std::string source) {
  auto unit = std::make_unique<CompilationUnit>();
  unit->file = std::make_unique<support::SourceFile>(std::move(name),
                                                     std::move(source));
  const std::string_view text = unit->file->text();
  unit->identity =
      support::fnv1a_u64(0, support::fnv1a(text.data(), text.size()));
  unit->diags.attach(unit->file.get());
  Lexer lexer(*unit->file, unit->diags);
  Parser parser(lexer.lex_all(), unit->diags);
  unit->program = parser.parse_program();
  return unit;
}

std::unique_ptr<CompilationUnit> compile(std::string name,
                                         std::string source) {
  auto unit = parse_only(std::move(name), std::move(source));
  if (!unit->diags.has_errors()) {
    Sema sema(*unit->program, unit->diags);
    unit->sema = sema.run();
  }
  return unit;
}

void reanalyze(CompilationUnit& unit) {
  Sema sema(*unit.program, unit.diags);
  unit.sema = sema.run();
}

}  // namespace uc::lang
