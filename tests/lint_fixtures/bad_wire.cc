// ns-lint-fixture: as=shuffle/bad_wire.cc expects=wire,wire
// Known-bad: ad-hoc struct serialization in shuffle/ — host-endian,
// padding-dependent bytes instead of a byte-at-a-time little-endian
// encoding.  Both the memcpy and the reinterpret_cast fire.
#include <cstdint>
#include <cstring>

namespace netshuffle {

struct BadFrame {
  uint32_t magic;
  uint32_t len;
};

void BadEncode(const BadFrame& f, uint8_t* out) {
  std::memcpy(out, &f, sizeof(f));  // endian/padding-fragile wire bytes
}

const BadFrame* BadDecode(const uint8_t* in) {
  return reinterpret_cast<const BadFrame*>(in);  // unchecked reinterpretation
}

}  // namespace netshuffle
