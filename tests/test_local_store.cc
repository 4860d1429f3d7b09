/** @file Unit tests for the SPE local store. */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/logging.hh"
#include "spe/local_store.hh"

using namespace cellbw;

namespace
{

struct LsFixture : public ::testing::Test
{
    sim::EventQueue eq;
    spe::LocalStoreParams params;

    std::unique_ptr<spe::LocalStore> make()
    {
        return std::make_unique<spe::LocalStore>("ls", eq, params);
    }
};

} // namespace

TEST_F(LsFixture, SizeIs256K)
{
    auto ls = make();
    EXPECT_EQ(ls->size(), 256u * 1024u);
}

TEST_F(LsFixture, DataRoundTrips)
{
    auto ls = make();
    const char msg[] = "synergistic";
    ls->write(0x100, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    ls->read(0x100, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(ls->byteAt(0x100), 's');
}

TEST_F(LsFixture, FreshStoreReadsZero)
{
    // Pages are backed lazily; a never-written byte must still read 0
    // at both ends of the store and across a 4 KiB page boundary.
    auto ls = make();
    EXPECT_EQ(ls->byteAt(0), 0);
    EXPECT_EQ(ls->byteAt(256 * 1024 - 1), 0);
    std::uint8_t buf[64];
    std::memset(buf, 0xFF, sizeof(buf));
    ls->read(4096 - 32, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST_F(LsFixture, WriteAcrossAPageBoundaryRoundTrips)
{
    auto ls = make();
    std::uint8_t in[48], out[48] = {};
    for (unsigned i = 0; i < sizeof(in); ++i)
        in[i] = static_cast<std::uint8_t>(i + 1);
    ls->write(2 * 4096 - 16, in, sizeof(in));
    ls->read(2 * 4096 - 16, out, sizeof(out));
    EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
    // Neighbours of the written span are untouched.
    EXPECT_EQ(ls->byteAt(2 * 4096 - 17), 0);
    EXPECT_EQ(ls->byteAt(2 * 4096 + 32), 0);
}

TEST_F(LsFixture, FillWorks)
{
    auto ls = make();
    ls->fill(0, 0x5A, 128);
    EXPECT_EQ(ls->byteAt(0), 0x5A);
    EXPECT_EQ(ls->byteAt(127), 0x5A);
    EXPECT_EQ(ls->byteAt(128), 0x00);
}

TEST_F(LsFixture, OutOfBoundsAccessIsFatal)
{
    auto ls = make();
    char buf[16];
    EXPECT_THROW(ls->read(256 * 1024 - 8, buf, 16), sim::FatalError);
    EXPECT_THROW(ls->write(256 * 1024, buf, 1), sim::FatalError);
    EXPECT_THROW(ls->byteAt(256 * 1024), sim::FatalError);
    EXPECT_THROW(ls->fill(256 * 1024 - 4, 0x5A, 8), sim::FatalError);
}

TEST_F(LsFixture, ExactEndOfStoreIsLegal)
{
    auto ls = make();
    char buf[16] = {};
    ls->write(256 * 1024 - 16, buf, 16);    // must not throw
}

TEST_F(LsFixture, PortMovesSixteenBytesPerCycle)
{
    auto ls = make();
    Tick t = ls->reservePort(128);
    EXPECT_EQ(t, 8u + params.accessLatency);
}

TEST_F(LsFixture, PortReservationsSerialize)
{
    auto ls = make();
    ls->reservePort(128);
    Tick t2 = ls->reservePort(128);
    EXPECT_EQ(t2, 16u + params.accessLatency);
    EXPECT_EQ(ls->portFreeAt(), 16u);
    EXPECT_EQ(ls->bytesAccessed(), 256u);
}

TEST_F(LsFixture, SubWidthAccessStillCostsACycle)
{
    auto ls = make();
    Tick t = ls->reservePort(4);
    EXPECT_EQ(t, 1u + params.accessLatency);
}

TEST_F(LsFixture, ZeroWidthPortIsFatal)
{
    params.bytesPerCycle = 0;
    EXPECT_THROW(make(), sim::FatalError);
}

TEST_F(LsFixture, ZeroSizeStoreIsFatal)
{
    params.sizeBytes = 0;
    EXPECT_THROW(make(), sim::FatalError);
}
