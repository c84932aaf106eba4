#include "analysis/report.hpp"

#include <sstream>

#include "support/str.hpp"

namespace uc::analysis {

using support::json_escape;

const char* comm_class_name(CommClass c) {
  switch (c) {
    case CommClass::kLocal:
      return "local";
    case CommClass::kNews:
      return "news";
    case CommClass::kScan:
      return "scan";
    case CommClass::kRouter:
      return "router";
  }
  return "unknown";
}

std::size_t FunctionComm::count(CommClass c) const {
  std::size_t n = 0;
  for (const auto& a : accesses) {
    if (a.cls == c) ++n;
  }
  return n;
}

std::size_t Report::error_count() const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity == support::Severity::kError) ++n;
  }
  return n;
}

std::size_t Report::warning_count() const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity == support::Severity::kWarning) ++n;
  }
  return n;
}

std::size_t Report::note_count() const {
  std::size_t n = 0;
  for (const auto& f : findings) {
    if (f.severity == support::Severity::kNote) ++n;
  }
  return n;
}

void Report::add(const char* code, support::Severity severity,
                 support::SourceRange range, std::string message) {
  findings.push_back(Finding{code, severity, range, std::move(message)});
}

std::string Report::render(const support::SourceFile* file,
                           const RenderOptions& opts) const {
  support::DiagnosticEngine engine(file);
  for (const auto& f : findings) {
    if (!opts.include_notes && f.severity == support::Severity::kNote) {
      continue;
    }
    std::string text = "[";
    text += f.code;
    text += "] ";
    text += f.message;
    engine.report(f.severity, f.range, text);
  }
  std::string out = engine.render_all();

  if (opts.include_summary && !functions.empty()) {
    std::ostringstream os;
    os << "communication summary:\n";
    for (const auto& fn : functions) {
      os << "  " << fn.function << "():"
         << " local=" << fn.count(CommClass::kLocal)
         << " news=" << fn.count(CommClass::kNews)
         << " scan=" << fn.count(CommClass::kScan)
         << " router=" << fn.count(CommClass::kRouter) << '\n';
      for (const auto& a : fn.accesses) {
        os << "    ";
        if (file != nullptr) {
          os << "line " << file->line_col(a.range.begin).line << ": ";
        }
        os << (a.is_write ? "write " : "read ") << a.array << " -> "
           << comm_class_name(a.cls);
        if (!a.detail.empty()) os << " (" << a.detail << ")";
        os << " [" << a.lanes << " lanes]\n";
      }
    }
    out += os.str();
  }
  return out;
}

std::string Report::json(const support::SourceFile* file) const {
  auto line_of = [&](support::SourceLoc loc) -> std::uint32_t {
    return file != nullptr ? file->line_col(loc).line : 0;
  };
  auto col_of = [&](support::SourceLoc loc) -> std::uint32_t {
    return file != nullptr ? file->line_col(loc).col : 0;
  };

  std::string out = "{\n";
  out += support::format(
      "  \"errors\": %zu, \"warnings\": %zu, \"notes\": %zu,\n",
      error_count(), warning_count(), note_count());

  out += "  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += support::format(
        "    {\"code\": \"%s\", \"severity\": \"%s\", \"line\": %u, "
        "\"col\": %u, \"message\": \"%s\"}%s\n",
        f.code, support::severity_name(f.severity), line_of(f.range.begin),
        col_of(f.range.begin), json_escape(f.message).c_str(),
        i + 1 < findings.size() ? "," : "");
  }
  out += "  ],\n";

  out += "  \"functions\": [\n";
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionComm& fn = functions[i];
    out += support::format(
        "    {\"function\": \"%s\", \"local\": %zu, \"news\": %zu, "
        "\"scan\": %zu, \"router\": %zu,\n",
        json_escape(fn.function).c_str(), fn.count(CommClass::kLocal),
        fn.count(CommClass::kNews), fn.count(CommClass::kScan),
        fn.count(CommClass::kRouter));
    out += "     \"accesses\": [\n";
    for (std::size_t k = 0; k < fn.accesses.size(); ++k) {
      const CommAccess& a = fn.accesses[k];
      out += support::format(
          "       {\"array\": \"%s\", \"op\": \"%s\", \"class\": \"%s\", "
          "\"line\": %u, \"lanes\": %llu, \"detail\": \"%s\"}%s\n",
          json_escape(a.array).c_str(), a.is_write ? "write" : "read",
          comm_class_name(a.cls), line_of(a.range.begin),
          static_cast<unsigned long long>(a.lanes),
          json_escape(a.detail).c_str(),
          k + 1 < fn.accesses.size() ? "," : "");
    }
    out += support::format("     ]}%s\n",
                           i + 1 < functions.size() ? "," : "");
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace uc::analysis
