#ifndef N2J_COMMON_STR_UTIL_H_
#define N2J_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace n2j {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Repeats `s` `n` times.
std::string Repeat(std::string_view s, int n);

/// 64-bit FNV-1a hash, used as the base of all hash tables in the library.
uint64_t Fnv1a(const void* data, size_t len, uint64_t seed = 1469598103934665603ULL);

/// Combines two hashes (boost-style mixing).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

}  // namespace n2j

#endif  // N2J_COMMON_STR_UTIL_H_
