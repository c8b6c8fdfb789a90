// Numbered entry names ("f0", "f1", ...) for tests that populate
// directories in a loop.
#pragma once

#include <string>

namespace netstore::test {

/// `prefix` followed by `n` in decimal.  Appends rather than writing
/// `"f" + std::to_string(n)`: GCC 12 at -O3 inlines that operator+ into
/// a false -Wrestrict warning.
inline std::string numbered(std::string prefix, long long n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace netstore::test
