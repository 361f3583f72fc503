// CRC-32C (Castagnoli, polynomial 0x1EDC6F41): the checksum guarding the
// persistent cache tier's on-disk bytes (persist/persistent_store.h) —
// its manifest journal records. CRC-32C is the
// variant hardware-accelerated everywhere (SSE4.2 crc32, ARMv8 CRC32C) and
// the one used by RocksDB, LevelDB, and ext4 metadata; this implementation
// is the portable slice-by-4 table walk, plenty for the store's write
// rates, and bit-compatible with the accelerated forms should one ever be
// added.
#ifndef AJD_UTIL_CRC32C_H_
#define AJD_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ajd {

/// CRC-32C of `n` bytes (the empty string's CRC is 0).
uint32_t Crc32c(const void* data, size_t n);

}  // namespace ajd

#endif  // AJD_UTIL_CRC32C_H_
