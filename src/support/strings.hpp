#pragma once
// Small string helpers shared across modules.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pmsched {

/// Format a double like the paper's tables: fixed `places` decimals.
[[nodiscard]] std::string fixed(double v, int places);

/// Join the elements of `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Split `text` at `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Append the decimal text of `v` (what `std::ostream <<` writes for it).
inline void appendInt(std::string& out, std::int64_t v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool startsWith(std::string_view text, std::string_view prefix);

/// Lower-case ASCII copy.
[[nodiscard]] std::string toLower(std::string_view text);

/// A legal VHDL identifier derived from an arbitrary node name.
[[nodiscard]] std::string sanitizeIdentifier(std::string_view name);

}  // namespace pmsched
