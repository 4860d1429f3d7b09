#include "cell/cell_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/align.hh"
#include "util/strings.hh"

namespace cellbw::cell
{

CellSystem::CellSystem(const CellConfig &cfg, std::uint64_t placementSeed)
    : cfg_(cfg), placementSeed_(placementSeed)
{
    unsigned slots = cfg_.numChips * eib::numPhysicalSpes;
    if (cfg_.numChips < 1) {
        sim::fatal("numChips must be at least 1");
    } else if (cfg_.numChips > kMaxChips) {
        sim::fatal("numChips %u exceeds the validated maximum of %u",
                   cfg_.numChips, kMaxChips);
    }
    if (cfg_.numSpes == 0 || cfg_.numSpes > slots)
        sim::fatal("numSpes must be 1..%u with %u chip(s)", slots,
                   cfg_.numChips);
    // The cluster shape is authoritative here: tests and workloads set
    // numChips/numBlades on the CellConfig directly, so sync the
    // memory system's copy instead of trusting fromOptions to have run.
    cfg_.memory.numChips = cfg_.numChips;
    cfg_.memory.numBlades = cfg_.numBlades;
    const auto shape = eib::ClusterShape::of(
        std::max(cfg_.numChips, 2u), cfg_.numBlades);
    if (!shape.valid()) {
        sim::fatal("invalid cluster shape: %u chips on %u blades",
                   cfg_.numChips, cfg_.numBlades);
    }

    eq_ = std::make_unique<sim::EventQueue>();
    memory_ = std::make_unique<mem::MemorySystem>("mem", *eq_, cfg_.memory);
    for (unsigned c = 0; c < cfg_.numChips; ++c) {
        eibs_.push_back(std::make_unique<eib::Eib>(
            util::format("eib%u", c), *eq_, cfg_.clock, cfg_.eib));
    }
    ppu_ = std::make_unique<ppe::Ppu>("ppe", *eq_, cfg_.clock, cfg_.ppu,
                                      &memory_->store());

    buildPlacement(placementSeed);
    // Each run draws its own fault sequence: the run's placement seed
    // is folded into the configured base fault seed (the per-SPE mix
    // happens inside the MFC).
    spe::SpeParams sp = cfg_.spe;
    sp.mfc.faults.seed ^= placementSeed * 0x9E3779B97F4A7C15ull;
    for (unsigned i = 0; i < cfg_.numSpes; ++i) {
        auto s = std::make_unique<spe::Spe>(util::format("spe%u", i), *eq_,
                                            cfg_.clock, sp, i);
        s->setPhysicalSpe(placement_[i],
                          eib::speRamp(placement_[i] %
                                       eib::numPhysicalSpes));
        s->mfc().setLineHandler([this](spe::LineRequest &&req) {
            routeLine(std::move(req));
        });
        if (cfg_.verify) {
            s->mfc().setCompletionHook(
                [this](const spe::Mfc::Completion &done) {
                    verifyCompletion(done);
                });
        }
        spes_.push_back(std::move(s));
    }

    eq_->setProfiling(cfg_.simProfile);
}

CellSystem::~CellSystem() = default;

void
CellSystem::buildPlacement(std::uint64_t seed)
{
    unsigned slots = cfg_.numChips * eib::numPhysicalSpes;
    switch (cfg_.affinity) {
      case AffinityPolicy::Random: {
        sim::Rng rng(seed);
        placement_ = rng.permutation(slots);
        break;
      }
      case AffinityPolicy::Linear:
        placement_.resize(slots);
        for (unsigned i = 0; i < slots; ++i)
            placement_[i] = i;
        break;
      case AffinityPolicy::Paired: {
        // Physical SPE indices in ring-adjacent pairs: positions
        // 1,2 / 3,4 / 7,8 / 9,10 on each die.
        static const std::uint32_t chip_pairs[] = {1, 3, 5, 7, 6, 4, 2, 0};
        placement_.clear();
        for (unsigned c = 0; c < cfg_.numChips; ++c)
            for (auto p : chip_pairs)
                placement_.push_back(p + c * eib::numPhysicalSpes);
        break;
      }
    }
}

spe::Spe &
CellSystem::spe(unsigned logical)
{
    if (logical >= spes_.size())
        sim::fatal("logical SPE %u out of range (%zu present)", logical,
                   spes_.size());
    return *spes_[logical];
}

eib::Eib &
CellSystem::eib(unsigned chip)
{
    if (chip >= eibs_.size())
        sim::fatal("chip %u out of range (%zu present)", chip,
                   eibs_.size());
    return *eibs_[chip];
}

unsigned
CellSystem::physicalOf(unsigned logical) const
{
    if (logical >= cfg_.numSpes)
        sim::fatal("logical SPE %u out of range", logical);
    return placement_[logical];
}

unsigned
CellSystem::chipOf(unsigned logical) const
{
    return physicalOf(logical) / eib::numPhysicalSpes;
}

unsigned
CellSystem::rampOf(unsigned logical) const
{
    return eib::speRamp(physicalOf(logical) % eib::numPhysicalSpes);
}

std::string
CellSystem::placementString() const
{
    std::string out;
    for (unsigned i = 0; i < cfg_.numSpes; ++i) {
        if (i)
            out += " ";
        out += util::format("%u->%u", i, placement_[i]);
    }
    return out;
}

EffAddr
CellSystem::malloc(std::uint64_t bytes)
{
    return malloc(bytes, cfg_.numa);
}

EffAddr
CellSystem::malloc(std::uint64_t bytes, const mem::NumaPolicy &policy)
{
    EffAddr ea = memory_->alloc(bytes, policy);
    if (ea + bytes >= lsEaBase)
        sim::fatal("main memory exhausted");
    return ea;
}

EffAddr
CellSystem::lsEa(unsigned logical, LsAddr lsa) const
{
    if (logical >= cfg_.numSpes)
        sim::fatal("lsEa: logical SPE %u out of range", logical);
    return lsEaBase + static_cast<EffAddr>(logical) * lsEaStride + lsa;
}

trace::Recorder &
CellSystem::enableTracing()
{
    if (!recorder_) {
        recorder_ = std::make_unique<trace::Recorder>();
        for (auto &s : spes_)
            s->mfc().setRecorder(recorder_.get());
        for (unsigned c = 0; c < eibs_.size(); ++c)
            eibs_[c]->setRecorder(recorder_.get(), c);
    }
    return *recorder_;
}

void
CellSystem::launch(sim::Task task)
{
    programs_.push_back(std::move(task));
    programs_.back().start();
}

void
CellSystem::run()
{
    eq_->run();
    for (auto &p : programs_) {
        p.rethrow();
        if (!p.done()) {
            sim::fatal("deadlock: a launched program never finished "
                       "(waiting on a DMA tag or mailbox that no one "
                       "completes?)");
        }
    }
}

void
CellSystem::routeLine(spe::LineRequest &&req)
{
    if (req.speIndex >= spes_.size())
        sim::panic("DMA line from unknown SPE %u", req.speIndex);
    if (isLsEa(req.ea))
        routeLocalStore(std::move(req));
    else
        routeMemory(std::move(req));
}

/**
 * Memory routing.  A line rides its SPE's EIB between the SPE's ramp
 * and the MIC when the bank is on the issuing chip.  Otherwise it uses
 * the IOIF ramp, serializes on every link of the route, and on the
 * bank's chip rides that chip's EIB between the IOIF ramp and the MIC.
 * The single-chip blade's far bank has no EIB: there the line goes
 * straight between the bank and the link (memGetRead, memPutStore).
 */
void
CellSystem::routeMemory(spe::LineRequest &&req)
{
    const unsigned home = chipOf(req.speIndex);
    Flight *f = acquireFlight(home, std::move(req));
    f->bank = static_cast<std::uint8_t>(memory_->bankOf(f->req.ea));
    f->crossing = f->bank != home;

    if (f->req.dir == spe::DmaDir::Get) {
        // Command phase to the bank's controller.  A crossing command
        // pays every link of the route (latency only: commands are
        // tiny).
        Tick at = eq_->now() +
                  cfg_.clock.busCycles(cfg_.eib.cmdLatencyBus) +
                  memory_->links().pathLatency(home, f->bank);
        eq_->scheduleAt(at, [this, f] { memGetAccess(f); });
    } else {
        // LS read, then the data rides out.
        Tick ls_done =
            spes_[f->req.speIndex]->ls().reservePort(f->req.bytes);
        eq_->scheduleAt(ls_done, [this, f] { memPutRide(f); });
    }
}

void
CellSystem::memGetAccess(Flight *f)
{
    memory_->bank(f->bank).access(f->req.ea, f->req.bytes, false,
                                  [this, f] { memGetRead(f); });
}

void
CellSystem::memGetRead(Flight *f)
{
    if (!f->crossing) {
        memGetRide(f);
    } else if (eib::Eib *far = bankEib(f->bank)) {
        far->transfer(eib::micRamp, eib::ioif0Ramp, f->req.bytes,
                      [this, f] { memGetCross(f); });
    } else {
        memGetCross(f);     // the single-chip blade's far bank
    }
}

void
CellSystem::memGetCross(Flight *f)
{
    // The line leaves the bank's chip: read its data now and carry it
    // home in the payload.
    memory_->store().read(f->req.ea, f->payload, f->req.bytes);
    memory_->links().sendData(f->bank, f->home, f->req.bytes,
                              [this, f] { memGetRide(f); });
}

void
CellSystem::memGetRide(Flight *f)
{
    eib::RampPos from = f->crossing ? eib::ioif0Ramp : eib::micRamp;
    eibs_[f->home]->transfer(from, rampOf(f->req.speIndex), f->req.bytes,
                             [this, f] { memGetLand(f); });
}

void
CellSystem::memGetLand(Flight *f)
{
    spe::Spe *s = spes_[f->req.speIndex].get();
    Tick done_at = s->ls().reservePort(f->req.bytes);
    if (!f->crossing)
        memory_->store().read(f->req.ea, f->payload, f->req.bytes);
    if (f->req.corrupt)
        f->payload[0] ^= 0xA5;
    s->ls().write(f->req.lsa, f->payload, f->req.bytes);
    eq_->scheduleAt(done_at, [this, f] { finishFlight(f); });
}

void
CellSystem::memPutRide(Flight *f)
{
    eib::RampPos to = f->crossing ? eib::ioif0Ramp : eib::micRamp;
    eibs_[f->home]->transfer(rampOf(f->req.speIndex), to, f->req.bytes,
                             [this, f] { memPutLeave(f); });
}

void
CellSystem::memPutLeave(Flight *f)
{
    spes_[f->req.speIndex]->ls().read(f->req.lsa, f->payload,
                                      f->req.bytes);
    if (f->req.corrupt)
        f->payload[0] ^= 0xA5;
    if (!f->crossing) {
        memPutStore(f);
        return;
    }
    memory_->links().sendData(f->home, f->bank, f->req.bytes,
                              [this, f] { memPutStore(f); });
}

void
CellSystem::memPutStore(Flight *f)
{
    memory_->store().write(f->req.ea, f->payload, f->req.bytes);
    eib::Eib *far = f->crossing ? bankEib(f->bank) : nullptr;
    if (far) {
        far->transfer(eib::ioif0Ramp, eib::micRamp, f->req.bytes,
                      [this, f] { memPutAck(f); });
        return;
    }
    // The bank is on the issuing chip, or it is the single-chip
    // blade's far bank: the write completes when the bank accepts it.
    memory_->bank(f->bank).access(f->req.ea, f->req.bytes, true,
                                  [this, f] { finishFlight(f); });
}

void
CellSystem::memPutAck(Flight *f)
{
    Tick completion =
        memory_->bank(f->bank).reserveAccess(f->req.ea, f->req.bytes, true);
    // The write acknowledgment crosses back to the issuing chip
    // (latency only, every link of the route).
    eq_->scheduleAt(completion +
                        memory_->links().pathLatency(f->bank, f->home),
                    [this, f] { finishFlight(f); });
}

/**
 * LS-to-LS routing.  The line is read from the data-holding LS (the
 * peer's for a GET, the issuer's for a PUT), rides that SPE's EIB to
 * the receiving SPE's ramp, or to the IOIF ramp when the two SPEs are
 * on different chips, and lands in the receiving LS.  A crossing GET's
 * command first crosses to the data-holding chip; a crossing PUT's
 * completion acknowledgment crosses back to the issuing chip.
 */
void
CellSystem::routeLocalStore(spe::LineRequest &&req)
{
    EffAddr rel = req.ea - lsEaBase;
    auto target_idx = static_cast<unsigned>(rel / lsEaStride);
    auto off = static_cast<LsAddr>(rel % lsEaStride);
    if (target_idx >= spes_.size()) {
        sim::fatal("DMA to LS aperture of SPE %u, which does not exist",
                   target_idx);
    }
    if (target_idx == req.speIndex)
        sim::fatal("DMA to the issuing SPE's own LS aperture");

    const bool isGet = req.dir == spe::DmaDir::Get;
    const unsigned issuer = req.speIndex;
    const unsigned home = chipOf(issuer);
    const unsigned peer = chipOf(target_idx);

    Flight *f = acquireFlight(home, std::move(req));
    f->srcSpe = static_cast<std::uint16_t>(isGet ? target_idx : issuer);
    f->dstSpe = static_cast<std::uint16_t>(isGet ? issuer : target_idx);
    f->srcLsa = isGet ? off : f->req.lsa;
    f->dstLsa = isGet ? f->req.lsa : off;
    f->crossing = peer != home;

    // The read starts at the data-holding SPE: a GET's command first
    // reaches the remote MFC, crossing to its chip if need be; a PUT's
    // data originates locally.
    const unsigned src = isGet ? peer : home;
    Tick at = eq_->now() + memory_->links().pathLatency(home, src);
    if (isGet)
        at += cfg_.clock.busCycles(cfg_.remoteCmdLatencyBus);
    eq_->scheduleAt(at, [this, f] { lsRead(f); });
}

void
CellSystem::lsRead(Flight *f)
{
    Tick read_done = spes_[f->srcSpe]->ls().reservePort(f->req.bytes);
    eq_->scheduleAt(read_done, [this, f] { lsRide(f); });
}

void
CellSystem::lsRide(Flight *f)
{
    eib::RampPos to = f->crossing ? eib::ioif0Ramp : rampOf(f->dstSpe);
    eibs_[chipOf(f->srcSpe)]->transfer(rampOf(f->srcSpe), to, f->req.bytes,
                                       [this, f] {
                                           if (f->crossing)
                                               lsCross(f);
                                           else
                                               lsLand(f);
                                       });
}

void
CellSystem::lsCross(Flight *f)
{
    // The line leaves the data-holding chip: read the LS now and carry
    // the line across in the payload.
    spes_[f->srcSpe]->ls().read(f->srcLsa, f->payload, f->req.bytes);
    memory_->links().sendData(chipOf(f->srcSpe), chipOf(f->dstSpe),
                              f->req.bytes, [this, f] { lsArrive(f); });
}

void
CellSystem::lsArrive(Flight *f)
{
    eibs_[chipOf(f->dstSpe)]->transfer(eib::ioif0Ramp, rampOf(f->dstSpe),
                                       f->req.bytes,
                                       [this, f] { lsLand(f); });
}

void
CellSystem::lsLand(Flight *f)
{
    spe::Spe *dst = spes_[f->dstSpe].get();
    Tick done_at = dst->ls().reservePort(f->req.bytes);
    if (!f->crossing)
        spes_[f->srcSpe]->ls().read(f->srcLsa, f->payload, f->req.bytes);
    if (f->req.corrupt)
        f->payload[0] ^= 0xA5;
    dst->ls().write(f->dstLsa, f->payload, f->req.bytes);
    // A crossing PUT lands on the far chip: its completion
    // acknowledgment crosses back to the issuing chip.
    const unsigned at = chipOf(f->dstSpe);
    eq_->scheduleAt(done_at + memory_->links().pathLatency(at, f->home),
                    [this, f] { finishFlight(f); });
}

void
CellSystem::finishFlight(Flight *f)
{
    auto done = std::move(f->req.done);
    flights_.release(f);
    done();
}

/** Read @p bytes at @p ea from wherever it lives: an SPE's LS aperture
 *  or the main-memory backing store. */
void
CellSystem::readEa(EffAddr ea, std::uint8_t *buf, std::uint32_t bytes)
{
    if (!isLsEa(ea)) {
        memory_->store().read(ea, buf, bytes);
        return;
    }
    EffAddr rel = ea - lsEaBase;
    auto idx = static_cast<unsigned>(rel / lsEaStride);
    auto off = static_cast<LsAddr>(rel % lsEaStride);
    if (idx >= spes_.size())
        sim::fatal("verify: EA 0x%llx maps to SPE %u, which does not "
                   "exist", (unsigned long long)ea, idx);
    spes_[idx]->ls().read(off, buf, bytes);
}

void
CellSystem::verifyCompletion(const spe::Mfc::Completion &done)
{
    if (done.fault != spe::MfcError::None) {
        // A dropped or corrupted command is *expected* to diverge; it
        // reported its error status and recovery is the program's job.
        ++verifyStats_.faultedSkipped;
        return;
    }
    auto &ls = spes_[done.speIndex]->ls();
    LsAddr lsa = done.lsa;
    std::vector<std::uint8_t> ls_buf, ea_buf;
    for (std::size_t k = 0; k < done.numSegs; ++k) {
        const auto &seg = done.segs[k];
        if (done.isList)
            lsa = static_cast<LsAddr>(util::roundUp(lsa, 16));
        ls_buf.resize(seg.size);
        ea_buf.resize(seg.size);
        ls.read(lsa, ls_buf.data(), seg.size);
        readEa(seg.ea, ea_buf.data(), seg.size);
        if (ls_buf != ea_buf) {
            std::uint32_t i = 0;
            while (i < seg.size && ls_buf[i] == ea_buf[i])
                ++i;
            ++verifyStats_.divergences;
            if (verifyStats_.firstDivergence.empty()) {
                verifyStats_.firstDivergence = util::format(
                    "tick %llu spe%u tag %u %s%s: LS 0x%x vs EA 0x%llx "
                    "diverge at byte %u of %u (ls=0x%02x ea=0x%02x)",
                    (unsigned long long)now(), done.speIndex, done.tag,
                    done.dir == spe::DmaDir::Get ? "get" : "put",
                    done.isList ? "-list" : "", lsa,
                    (unsigned long long)seg.ea, i, seg.size, ls_buf[i],
                    ea_buf[i]);
            }
        }
        verifyStats_.bytesChecked += seg.size;
        lsa += seg.size;
    }
    ++verifyStats_.transfersChecked;
}

void
CellSystem::snapshotMetrics(stats::MetricsRegistry &reg) const
{
    reg.counter("sim.runs").increment();
    reg.counter("sim.ticks").add(now());
    for (unsigned c = 0; c < eibs_.size(); ++c)
        eibs_[c]->registerMetrics(reg, util::format("eib%u", c));
    memory_->registerMetrics(reg, "mem");
    ppu_->registerMetrics(reg, "ppe");
    for (unsigned s = 0; s < spes_.size(); ++s) {
        spes_[s]->mfc().registerMetrics(
            reg, util::format("spe%u.mfc", s));
    }
    if (cfg_.verify) {
        reg.counter("verify.transfers_checked")
            .add(verifyStats_.transfersChecked);
        reg.counter("verify.bytes_checked").add(verifyStats_.bytesChecked);
        reg.counter("verify.divergences").add(verifyStats_.divergences);
        reg.counter("verify.faulted_skipped")
            .add(verifyStats_.faultedSkipped);
    }
    if (recorder_) {
        reg.counter("trace.dma_dropped").add(recorder_->dmaDropped());
        reg.counter("trace.eib_dropped").add(recorder_->eibDropped());
    }
    if (cfg_.simProfile) {
        const auto &total = eq_->tagProfiles();
        for (std::size_t i = 0; i < total.size(); ++i) {
            if (!total[i].events)
                continue;
            auto tag = static_cast<sim::EventTag>(i);
            reg.counter(util::format("profile.%s.events",
                                     sim::toString(tag)))
                .add(total[i].events);
            reg.counter(util::format("profile.%s.self_ns",
                                     sim::toString(tag)))
                .add(total[i].selfNs);
        }
    }
}

} // namespace cellbw::cell
