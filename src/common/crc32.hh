/**
 * @file
 * CRC-32C (Castagnoli) checksums for persistent-log integrity.
 *
 * The undo log stores a per-entry checksum so recovery can *verify*
 * entries instead of trusting the persist order alone: a torn or
 * bit-flipped entry fails its CRC and is reported, never replayed.
 * CRC-32C is the polynomial real storage stacks use (iSCSI, ext4,
 * btrfs, SSE4.2 crc32 instruction). crc32c() uses that instruction
 * when the host has it and the portable byte table otherwise; both
 * give the same values. Integrity checking here is correctness
 * machinery, not a modelled latency: the crash explorer's state
 * digests are what make its speed matter.
 */

#ifndef PMEMSPEC_COMMON_CRC32_HH
#define PMEMSPEC_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace pmemspec
{

/**
 * CRC-32C over a byte range.
 * @param seed Chain value from a previous call (0 to start); pass the
 *        previous return value to checksum discontiguous pieces as
 *        one logical record.
 */
std::uint32_t crc32c(const void *data, std::size_t n,
                     std::uint32_t seed = 0);

/** The byte-table implementation (the portable fallback). */
std::uint32_t crc32cTable(const void *data, std::size_t n,
                          std::uint32_t seed = 0);

/** The host has the SSE4.2 crc32 instruction. */
bool crc32cHardwareAvailable();

/** The SSE4.2 implementation; only valid to call when
 *  crc32cHardwareAvailable() (off x86-64 it is the table). */
std::uint32_t crc32cHardware(const void *data, std::size_t n,
                             std::uint32_t seed = 0);

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_CRC32_HH
