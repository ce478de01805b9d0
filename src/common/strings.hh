/**
 * @file
 * Small string helpers shared by the ODF parser and bench output.
 */

#ifndef HYDRA_COMMON_STRINGS_HH
#define HYDRA_COMMON_STRINGS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace hydra {

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view text);

/** Split on a delimiter character; empty fields preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Case-sensitive prefix/suffix tests. */
bool startsWith(std::string_view text, std::string_view prefix);
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/** Parse a base-10 integer; returns false on any non-digit garbage. */
bool parseInt(std::string_view text, long long &out);

/** Parse a double; returns false on trailing garbage. */
bool parseDouble(std::string_view text, double &out);

/**
 * Strict parser for unsigned command-line numbers: base-10 digits
 * only, in [@p min, @p max]. No sign, whitespace, fraction or suffix,
 * and no silent wrap: "", "-5", "1.5", "5x" and values past @p max
 * (including past 2^64) all fail and leave @p out untouched.
 */
bool parseU64(std::string_view text, std::uint64_t &out,
              std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Render a series as 8-level block glyphs scaled against its own max.
 * Degenerate inputs stay sane: an empty series renders as "", a
 * single sample as one glyph, and negative or non-finite samples are
 * clamped to zero (an all-zero series is a row of baselines).
 */
std::string sparkline(const std::vector<double> &values);

} // namespace hydra

#endif // HYDRA_COMMON_STRINGS_HH
