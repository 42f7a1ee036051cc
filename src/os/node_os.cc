/**
 * @file
 * Node OS implementation.
 */

#include "os/node_os.hh"

#include "sim/log.hh"

namespace sonuma::os {

Process::Process(NodeOs &os, std::uint32_t pid, UserId uid)
    : pid_(pid), uid_(uid), as_(os.phys(), os.frames())
{
}

NodeOs::NodeOs(mem::PhysMem &phys, std::uint64_t kernelReserve)
    : phys_(phys), kernelReserve_(kernelReserve),
      frames_(kernelReserve, phys.size() - kernelReserve)
{
    if (kernelReserve % vm::kPageBytes != 0)
        sim::fatal("kernel reserve must be page aligned");
    if (kernelReserve >= phys.size())
        sim::fatal("kernel reserve exceeds physical memory");
}

Process &
NodeOs::createProcess(UserId uid)
{
    processes_.push_back(std::make_unique<Process>(
        *this, static_cast<std::uint32_t>(processes_.size()), uid));
    return *processes_.back();
}

mem::PAddr
NodeOs::allocKernel(std::uint64_t bytes)
{
    // Align to cache lines so RMC structures never straddle shared lines.
    const std::uint64_t aligned = (bytes + 63) & ~std::uint64_t(63);
    if (kernelBrk_ + aligned > kernelReserve_)
        sim::fatal("kernel reserve exhausted");
    const mem::PAddr pa = kernelBrk_;
    kernelBrk_ += aligned;
    phys_.fill(pa, 0, aligned);
    return pa;
}

} // namespace sonuma::os
