/**
 * @file
 * CRC-32C: the known answer, and the SSE4.2 path against the byte
 * table over random lengths, alignments and seeds.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32.hh"
#include "common/rng.hh"

using namespace pmemspec;

TEST(Crc32c, KnownAnswer)
{
    // The CRC-32C check value (RFC 3720 appendix B.4 polynomial).
    const char *msg = "123456789";
    EXPECT_EQ(crc32c(msg, std::strlen(msg)), 0xE3069283u);
    EXPECT_EQ(crc32cTable(msg, std::strlen(msg)), 0xE3069283u);
    EXPECT_EQ(crc32c(msg, 0), 0u);
}

TEST(Crc32c, ChainingEqualsOnePass)
{
    const char *msg = "123456789";
    const std::uint32_t head = crc32c(msg, 4);
    EXPECT_EQ(crc32c(msg + 4, 5, head), 0xE3069283u);
}

TEST(Crc32c, HardwareMatchesTable)
{
    if (!crc32cHardwareAvailable())
        GTEST_SKIP() << "host has no SSE4.2 crc32 instruction";
    EXPECT_EQ(crc32cHardware("123456789", 9), 0xE3069283u);
    Rng rng(42);
    std::vector<std::uint8_t> buf(600);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t off = rng.below(16);
        const std::size_t len = rng.below(buf.size() - off);
        const auto seed = static_cast<std::uint32_t>(rng.next());
        ASSERT_EQ(crc32cHardware(buf.data() + off, len, seed),
                  crc32cTable(buf.data() + off, len, seed))
            << "off=" << off << " len=" << len << " seed=" << seed;
    }
}
