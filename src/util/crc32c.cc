#include "util/crc32c.h"

namespace ajd {

namespace {

// Reflected polynomial of CRC-32C.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  uint32_t t[4][256];

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

const Tables& T() {
  static const Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n) {
  const Tables& tab = T();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~uint32_t{0};
  while (n >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = tab.t[3][c & 0xFF] ^ tab.t[2][(c >> 8) & 0xFF] ^
        tab.t[1][(c >> 16) & 0xFF] ^ tab.t[0][c >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) {
    c = tab.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace ajd
