/**
 * @file
 * End-to-end tests of the recoverable MFC fault model: injected
 * drops/corruptions are repaired by the communicator's retry path,
 * --verify cross-checks every transfer against the backing store, and
 * the fault sequence is seed-stable.
 */

#include <gtest/gtest.h>

#include <vector>

#include "msg/communicator.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

struct FaultFixture : public ::testing::Test
{
    cell::CellConfig cfg;

    struct BatchResult
    {
        std::uint64_t faults = 0;
        std::uint64_t retries = 0;
        std::uint64_t injected = 0;
        Tick makespan = 0;
    };

    /**
     * Pass @p messages rendezvous messages of @p bytes around a ring of
     * @p ranks SPEs (each rank sends to its right neighbour and
     * receives from its left one) and check every message's bytes.
     */
    BatchResult
    runBatch(unsigned ranks, unsigned messages, std::uint32_t bytes,
             std::uint64_t seed = 1)
    {
        cell::CellSystem sys(cfg, seed);
        msg::Communicator comm(sys, ranks);
        std::vector<LsAddr> src(ranks), dst(ranks);
        for (unsigned r = 0; r < ranks; ++r) {
            src[r] = sys.spe(r).lsAlloc(bytes);
            dst[r] = sys.spe(r).lsAlloc(bytes);
        }
        // Message m of rank r carries one byte value throughout.
        auto pattern = [messages](unsigned r, unsigned m) {
            return static_cast<std::uint8_t>(r * messages + m + 1);
        };

        unsigned received = 0;
        auto sender = [&](unsigned r) -> sim::Task {
            for (unsigned m = 0; m < messages; ++m) {
                sys.spe(r).ls().fill(src[r], pattern(r, m), bytes);
                co_await comm.send(r, (r + 1) % ranks, src[r], bytes);
            }
        };
        auto receiver = [&](unsigned r) -> sim::Task {
            const unsigned left = (r + ranks - 1) % ranks;
            for (unsigned m = 0; m < messages; ++m) {
                std::uint32_t got = 0;
                co_await comm.recv(r, left, dst[r], bytes, &got);
                EXPECT_EQ(got, bytes);
                for (std::uint32_t off : {0u, bytes / 2, bytes - 1}) {
                    EXPECT_EQ(sys.spe(r).ls().byteAt(dst[r] + off),
                              pattern(left, m))
                        << "rank " << r << " message " << m
                        << " offset " << off;
                }
                ++received;
            }
        };
        for (unsigned r = 0; r < ranks; ++r) {
            sys.launch(sender(r));
            sys.launch(receiver(r));
        }
        sys.run();

        EXPECT_EQ(received, ranks * messages);
        if (sys.verifying()) {
            EXPECT_EQ(sys.verifyStats().divergences, 0u)
                << sys.verifyStats().firstDivergence;
            EXPECT_GT(sys.verifyStats().transfersChecked, 0u);
        }

        BatchResult r;
        r.faults = comm.dmaFaults();
        r.retries = comm.dmaRetries();
        for (unsigned i = 0; i < sys.numSpes(); ++i) {
            r.injected += sys.spe(i).mfc().dropsInjected() +
                          sys.spe(i).mfc().corruptionsInjected() +
                          sys.spe(i).mfc().delaysInjected();
        }
        r.makespan = sys.now();
        return r;
    }
};

} // namespace

TEST_F(FaultFixture, RingSurvivesDropsAndCorruptionsUnderVerify)
{
    cfg.spe.mfc.faults.dropRate = 0.03;
    cfg.spe.mfc.faults.corruptRate = 0.03;
    cfg.spe.mfc.faults.seed = 11;
    cfg.verify = true;
    auto r = runBatch(4, 12, 96 * 1024);
    // With ~290 payload GETs at 6% fault probability, faults certainly
    // occurred and every one was repaired by a retry.
    EXPECT_GT(r.faults, 0u);
    EXPECT_GE(r.retries, r.faults);
}

TEST_F(FaultFixture, DelaysAloneNeedNoRetries)
{
    cfg.spe.mfc.faults.delayRate = 0.2;
    cfg.verify = true;
    auto r = runBatch(2, 6, 64 * 1024);
    EXPECT_GT(r.injected, 0u);
    EXPECT_EQ(r.faults, 0u);        // a late completion is not an error
    EXPECT_EQ(r.retries, 0u);
}

TEST_F(FaultFixture, DisabledInjectionIsCleanAndRetryFree)
{
    cfg.verify = true;
    auto r = runBatch(4, 8, 64 * 1024);
    EXPECT_EQ(r.injected, 0u);
    EXPECT_EQ(r.faults, 0u);
    EXPECT_EQ(r.retries, 0u);
}

TEST_F(FaultFixture, SameSeedReproducesTheFaultSequence)
{
    cfg.spe.mfc.faults.dropRate = 0.05;
    cfg.spe.mfc.faults.corruptRate = 0.05;
    auto a = runBatch(4, 8, 64 * 1024, 3);
    auto b = runBatch(4, 8, 64 * 1024, 3);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.makespan, b.makespan);

    // A different run seed draws a different fault sequence.
    auto c = runBatch(4, 8, 64 * 1024, 4);
    EXPECT_TRUE(a.injected != c.injected || a.makespan != c.makespan);
}

TEST_F(FaultFixture, MessagePassingRetriesFaultedTransfers)
{
    cfg.spe.mfc.faults.dropRate = 0.1;
    cfg.spe.mfc.faults.corruptRate = 0.1;
    cfg.spe.mfc.faults.seed = 5;
    cfg.verify = true;
    cell::CellSystem sys(cfg, 1);
    msg::Communicator comm(sys, 2);
    const std::uint32_t eager_bytes = 1024;     // eager protocol
    const std::uint32_t rndv_bytes = 32 * 1024; // rendezvous protocol
    LsAddr src = sys.spe(0).lsAlloc(rndv_bytes);
    LsAddr dst = sys.spe(1).lsAlloc(rndv_bytes);
    sys.spe(0).ls().fill(src, 0x5A, rndv_bytes);

    auto sender = [&]() -> sim::Task {
        for (int i = 0; i < 8; ++i) {
            co_await comm.send(0, 1, src, eager_bytes);
            co_await comm.send(0, 1, src, rndv_bytes);
        }
    };
    auto receiver = [&]() -> sim::Task {
        for (int i = 0; i < 8; ++i) {
            co_await comm.recv(1, 0, dst, rndv_bytes, nullptr);
            co_await comm.recv(1, 0, dst, rndv_bytes, nullptr);
            EXPECT_EQ(sys.spe(1).ls().byteAt(dst), 0x5A);
            EXPECT_EQ(sys.spe(1).ls().byteAt(dst + rndv_bytes - 1),
                      0x5A);
        }
    };
    sys.launch(sender());
    sys.launch(receiver());
    sys.run();
    // At a 20% fault rate over ~50 payload DMAs, retries certainly
    // happened — and every payload still arrived intact.
    EXPECT_GT(comm.dmaFaults(), 0u);
    EXPECT_GE(comm.dmaRetries(), comm.dmaFaults());
    EXPECT_EQ(sys.verifyStats().divergences, 0u)
        << sys.verifyStats().firstDivergence;
}
