#include "msg/communicator.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "util/align.hh"

namespace cellbw::msg
{

Communicator::Communicator(cell::CellSystem &sys, unsigned ranks,
                           const CommunicatorParams &params)
    : sys_(sys), params_(params), ranks_(ranks)
{
    if (ranks_ < 2 || ranks_ > sys_.numSpes())
        sim::fatal("communicator: ranks must be 2..%u", sys_.numSpes());
    if (params_.eagerLimit > params_.slotBytes)
        sim::fatal("communicator: eager limit exceeds the slot size");
    if (!util::isValidDmaSize(params_.slotBytes))
        sim::fatal("communicator: slot size is not a valid DMA size");

    auto &eq = sys_.eventQueue();
    pairs_.resize(std::size_t(ranks_) * ranks_);
    for (unsigned dst = 0; dst < ranks_; ++dst) {
        for (unsigned src = 0; src < ranks_; ++src) {
            if (src == dst)
                continue;
            Pair &p = pair(src, dst);
            p.arrived = std::make_unique<sim::Signal>(eq);
            p.credit = std::make_unique<sim::Signal>(eq);
            p.consumed = std::make_unique<sim::Signal>(eq);
            p.credits = params_.slotsPerPair;
            // Eager slots live in the receiver's LS.
            p.slotBase = sys_.spe(dst).lsAlloc(
                params_.slotsPerPair * params_.slotBytes);
        }
    }
}

Communicator::Pair &
Communicator::pair(unsigned src, unsigned dst)
{
    if (src >= ranks_ || dst >= ranks_ || src == dst)
        sim::fatal("communicator: bad pair %u -> %u", src, dst);
    return pairs_[std::size_t(src) * ranks_ + dst];
}

namespace
{

/** Message sizes follow the DMA rules but may exceed one command:
 *  1, 2, 4, 8 bytes or any multiple of 16 (chunked into <=16 KB DMAs). */
bool
isValidMessageSize(std::uint32_t bytes)
{
    if (bytes == 0)
        return false;
    if (bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8)
        return true;
    return bytes % 16 == 0;
}

} // namespace

sim::Task
Communicator::send(unsigned self, unsigned dst, LsAddr lsa,
                   std::uint32_t bytes)
{
    if (!isValidMessageSize(bytes))
        sim::fatal("communicator: message size %u is not a valid DMA "
                   "size", bytes);
    Pair &p = pair(self, dst);
    auto &mfc = sys_.spe(self).mfc();
    bytesSent_ += bytes;

    if (bytes <= params_.eagerLimit) {
        // Eager: claim a credit, PUT into the receiver's slot, post.
        while (p.credits == 0)
            co_await p.credit->wait();
        --p.credits;
        unsigned slot = p.nextSlot;
        p.nextSlot = (p.nextSlot + 1) % params_.slotsPerPair;

        co_await mfc.queueSpace();
        mfc.put(lsa,
                sys_.lsEa(dst, p.slotBase + slot * params_.slotBytes),
                bytes, 7);
        co_await mfc.tagWait(1u << 7);
        if (mfc.tagFaultCount(7))
            co_await recoverDma(self, 7);

        co_await sim::Delay{sys_.eventQueue(), params_.notifyLatency};
        p.queue.push_back(std::make_shared<Descriptor>(
            Descriptor{bytes, true, slot, 0, false}));
        p.arrived->notifyAll();
        ++eagerCount_;
        co_return;
    }

    // Rendezvous: publish a ready-to-send descriptor, wait for the
    // receiver to pull the payload from our LS.
    co_await sim::Delay{sys_.eventQueue(), params_.notifyLatency};
    auto mine = std::make_shared<Descriptor>(
        Descriptor{bytes, false, 0, lsa, false});
    p.queue.push_back(mine);
    p.arrived->notifyAll();
    ++rndvCount_;
    while (!mine->consumed)
        co_await p.consumed->wait();
}

sim::Task
Communicator::recv(unsigned self, unsigned src, LsAddr lsa,
                   std::uint32_t maxBytes, std::uint32_t *outBytes)
{
    Pair &p = pair(src, self);
    auto &spe = sys_.spe(self);

    while (p.queue.empty())
        co_await p.arrived->wait();
    std::shared_ptr<Descriptor> stored = p.queue.front();
    Descriptor d = *stored;
    if (d.bytes > maxBytes) {
        sim::fatal("communicator: %u-byte message exceeds the %u-byte "
                   "receive buffer", d.bytes, maxBytes);
    }

    if (d.eager) {
        p.queue.pop_front();
        // Copy slot -> user buffer inside the LS (quadword loop).
        LsAddr slot_lsa = p.slotBase + d.slot * params_.slotBytes;
        std::vector<std::uint8_t> buf(d.bytes);
        spe.ls().read(slot_lsa, buf.data(), d.bytes);
        spe.ls().write(lsa, buf.data(), d.bytes);
        Tick done = spe.ls().reservePort(2 * d.bytes);
        co_await sim::WaitUntil{sys_.eventQueue(), done};
        // Return the credit.
        co_await sim::Delay{sys_.eventQueue(), params_.notifyLatency};
        ++p.credits;
        p.credit->notifyAll();
    } else {
        // Rendezvous: pull straight from the sender's LS, chunked into
        // <=16 KiB commands with the tag wait delayed to the end.
        auto &mfc = spe.mfc();
        for (std::uint32_t off = 0; off < d.bytes; off += 16 * 1024) {
            std::uint32_t chunk =
                std::min<std::uint32_t>(16 * 1024, d.bytes - off);
            co_await mfc.queueSpace();
            mfc.get(lsa + off, sys_.lsEa(src, d.senderLsa + off), chunk,
                    8);
        }
        co_await mfc.tagWait(1u << 8);
        if (mfc.tagFaultCount(8))
            co_await recoverDma(self, 8);
        stored->consumed = true;
        p.queue.pop_front();
        co_await sim::Delay{sys_.eventQueue(), params_.notifyLatency};
        p.consumed->notifyAll();
    }
    if (outBytes)
        *outBytes = d.bytes;
}

/**
 * Repair a tag group whose payload DMA completed with fault status:
 * re-issue each faulted command verbatim (the sender's buffer and the
 * eager slot are both still live, so transfers are idempotent) after a
 * backoff that doubles per attempt, bounded by params.maxDmaRetries.
 */
sim::Task
Communicator::recoverDma(unsigned rank, unsigned tag)
{
    auto &mfc = sys_.spe(rank).mfc();
    for (unsigned attempt = 0;; ++attempt) {
        auto faults = mfc.takeFaults(tag);
        if (faults.empty())
            co_return;
        dmaFaults_ += faults.size();
        for (const auto &f : faults) {
            if (!spe::isTransient(f.code)) {
                sim::fatal("communicator rank %u: unrecoverable MFC "
                           "fault '%s' on tag %u", rank,
                           spe::toString(f.code), tag);
            }
        }
        if (attempt >= params_.maxDmaRetries) {
            sim::fatal("communicator rank %u: tag %u still faulted "
                       "after %u retries", rank, tag,
                       params_.maxDmaRetries);
        }
        co_await sim::Delay{sys_.eventQueue(),
                            params_.retryBackoff
                                << std::min(attempt, 16u)};
        for (const auto &f : faults) {
            ++dmaRetries_;
            co_await mfc.queueSpace();
            if (f.dir == spe::DmaDir::Get)
                mfc.get(f.lsa, f.segs[0].ea, f.segs[0].size, f.tag);
            else
                mfc.put(f.lsa, f.segs[0].ea, f.segs[0].size, f.tag);
        }
        co_await mfc.tagWait(1u << tag);
    }
}

} // namespace cellbw::msg
