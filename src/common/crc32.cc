#include "crc32.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PMEMSPEC_CRC32C_HW 1
#endif

namespace pmemspec
{

namespace
{

/** Build the byte-at-a-time lookup table for the reflected
 *  Castagnoli polynomial 0x1EDC6F41 (reflected: 0x82F63B78). */
std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

const std::array<std::uint32_t, 256> table = makeTable();

using Crc32cFn = std::uint32_t (*)(const void *, std::size_t,
                                   std::uint32_t);

/** Chosen once: the instruction when the host has it. */
Crc32cFn
pickCrc32c()
{
    return crc32cHardwareAvailable() ? crc32cHardware : crc32cTable;
}

} // namespace

std::uint32_t
crc32cTable(const void *data, std::size_t n, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return ~c;
}

bool
crc32cHardwareAvailable()
{
#ifdef PMEMSPEC_CRC32C_HW
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
#else
    return false;
#endif
}

#ifdef PMEMSPEC_CRC32C_HW
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli
// CRC, 8 bytes per instruction.
__attribute__((target("sse4.2"))) std::uint32_t
crc32cHardware(const void *data, std::size_t n, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t c = ~seed;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        c = _mm_crc32_u64(c, v);
    }
    auto c32 = static_cast<std::uint32_t>(c);
    for (; n > 0; ++p, --n)
        c32 = _mm_crc32_u8(c32, *p);
    return ~c32;
}
#else
std::uint32_t
crc32cHardware(const void *data, std::size_t n, std::uint32_t seed)
{
    return crc32cTable(data, n, seed);
}
#endif

std::uint32_t
crc32c(const void *data, std::size_t n, std::uint32_t seed)
{
    static const Crc32cFn impl = pickCrc32c();
    return impl(data, n, seed);
}

} // namespace pmemspec
