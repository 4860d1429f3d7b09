/**
 * @file
 * One Synergistic Processor Element: SPU + Local Store + MFC +
 * mailboxes, plus its place in the machine.
 *
 * The distinction the paper hinges on: an SPE has a *logical* index
 * (what libspe hands the programmer) and a *physical* ramp position on
 * the EIB (assigned by the kernel, invisible to the programmer).  The
 * Spe object carries both; the CellSystem assigns the mapping per run.
 */

#ifndef CELLBW_SPE_SPE_HH
#define CELLBW_SPE_SPE_HH

#include <memory>

#include "spe/local_store.hh"
#include "spe/mailbox.hh"
#include "spe/mfc.hh"
#include "spe/spu.hh"

namespace cellbw::spe
{

struct SpeParams
{
    LocalStoreParams ls;
    MfcParams mfc;
    SpuParams spu;
};

class Spe : public sim::SimObject
{
  public:
    Spe(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
        const SpeParams &params, unsigned logicalIndex);

    LocalStore &ls() { return *ls_; }
    Mfc &mfc() { return *mfc_; }
    Spu &spu() { return *spu_; }
    Mailbox &inboundMailbox() { return *inbound_; }
    Mailbox &outboundMailbox() { return *outbound_; }

    /** Logical index, 0-7, as seen through libspe. */
    unsigned logicalIndex() const { return logicalIndex_; }

    /** @name Physical placement (set once by the CellSystem). */
    /** @{ */
    void setPhysicalSpe(unsigned phys, unsigned rampPos);
    unsigned physicalSpe() const { return physicalSpe_; }
    unsigned rampPos() const { return rampPos_; }
    /** @} */

    /** A simple bump allocator over the LS for benchmark buffers. */
    LsAddr lsAlloc(std::uint32_t bytes, std::uint32_t align = 128);
    void lsReset() { lsBrk_ = 0; }

  private:
    unsigned logicalIndex_;
    unsigned physicalSpe_ = ~0u;
    unsigned rampPos_ = ~0u;
    std::uint32_t lsBrk_ = 0;

    std::unique_ptr<LocalStore> ls_;
    std::unique_ptr<Mfc> mfc_;
    std::unique_ptr<Spu> spu_;
    std::unique_ptr<Mailbox> inbound_;
    std::unique_ptr<Mailbox> outbound_;
};

} // namespace cellbw::spe

#endif // CELLBW_SPE_SPE_HH
