// Self-checking values. Every value the benchmark writes is 256 bytes
// (paper §5.1) and carries the index of the key it belongs to, a version
// and a checksum over everything else, so any Get, scan entry or server
// reply can be checked on its own: a value returned for the wrong key, a
// torn or corrupted value, or a version nobody wrote is caught.
//
// Layout: [0,8) key index, [8,16) version, [16,24) checksum, [24,256)
// filler derived from (index, version). Version 0 is the bulk load; a
// client thread t writes versions (t + 1) << 48 | n with n counting up.
#ifndef CLSMBENCH_VALUE_CODEC_H_
#define CLSMBENCH_VALUE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/util/slice.h"

namespace clsmbench {

constexpr size_t kValueSize = 256;
constexpr size_t kKeySize = 8;
// Bytes of user data per entry, the base of space and write amplification.
constexpr size_t kEntryBytes = kKeySize + kValueSize;
constexpr int kVersionThreadShift = 48;

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

inline uint64_t Checksum(const char* p) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (size_t off = 0; off < kValueSize; off += 8) {
    if (off == 16) continue;  // the checksum slot itself
    uint64_t w;
    std::memcpy(&w, p + off, 8);
    h = Mix64(h ^ w) + off;
  }
  return h;
}

inline uint64_t MakeVersion(int thread, uint64_t n) {
  return (static_cast<uint64_t>(thread + 1) << kVersionThreadShift) | n;
}

// Writes the value of (index, version) into out[0, kValueSize).
inline void EncodeValue(uint64_t index, uint64_t version, char* out) {
  std::memcpy(out, &index, 8);
  std::memcpy(out + 8, &version, 8);
  uint64_t x = index * 0x9e3779b97f4a7c15ull ^ version;
  for (size_t off = 24; off < kValueSize; off += 8) {
    x = Mix64(x + off);
    std::memcpy(out + off, &x, 8);
  }
  const uint64_t sum = Checksum(out);
  std::memcpy(out + 16, &sum, 8);
}

struct DecodedValue {
  uint64_t index = 0;
  uint64_t version = 0;
};

// True when v is a well-formed value written for key `index`; fills *out.
inline bool CheckValue(const clsm::Slice& v, uint64_t index, DecodedValue* out) {
  if (v.size() != kValueSize) return false;
  const char* p = v.data();
  uint64_t got_index, version, sum;
  std::memcpy(&got_index, p, 8);
  std::memcpy(&version, p + 8, 8);
  std::memcpy(&sum, p + 16, 8);
  if (got_index != index || sum != Checksum(p)) return false;
  out->index = got_index;
  out->version = version;
  return true;
}

// Big-endian 8-byte key (EncodeWorkloadKey's format) and its inverse.
inline uint64_t DecodeKeyIndex(const clsm::Slice& k) {
  uint64_t v = 0;
  for (size_t i = 0; i < k.size() && i < kKeySize; i++) {
    v = (v << 8) | static_cast<unsigned char>(k.data()[i]);
  }
  return k.size() == kKeySize ? v : ~uint64_t{0};
}

}  // namespace clsmbench

#endif  // CLSMBENCH_VALUE_CODEC_H_
