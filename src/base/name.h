#ifndef XTC_BASE_NAME_H_
#define XTC_BASE_NAME_H_

#include <string>
#include <string_view>

namespace xtc {

/// `prefix` followed by the decimal digits of `i` ("q", 3 -> "q3"): the
/// numbered state and symbol names of generated instances. Built by
/// appending; GCC 12 reports a false -Wrestrict on `"q" + std::to_string(i)`
/// once the prepend is inlined, and the Release build treats warnings as
/// errors.
inline std::string IndexedName(std::string_view prefix, int i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

}  // namespace xtc

#endif  // XTC_BASE_NAME_H_
