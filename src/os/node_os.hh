/**
 * @file
 * Minimal per-node operating system model (paper §5.1).
 *
 * The OS's roles in soNUMA are: manage virtual memory (so the RMC can
 * walk the same page tables), allocate the RMC's control structures
 * (CT, ITT), and mediate context/QP registration through the device
 * driver. There is one OS instance per node — soNUMA deliberately does
 * NOT extend a single OS image across nodes (fault isolation, §2.2).
 */

#ifndef SONUMA_OS_NODE_OS_HH
#define SONUMA_OS_NODE_OS_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "vm/address_space.hh"
#include "vm/page_table.hh"

namespace sonuma::os {

/** Thrown when access control denies an operation (paper §5.1). */
class PermissionError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A user identity for the driver's access-control checks. */
using UserId = std::uint32_t;

class NodeOs;

/**
 * One user process: an address space plus an owner uid.
 */
class Process
{
  public:
    Process(NodeOs &os, std::uint32_t pid, UserId uid);

    std::uint32_t pid() const { return pid_; }
    UserId uid() const { return uid_; }
    vm::AddressSpace &addressSpace() { return as_; }
    const vm::AddressSpace &addressSpace() const { return as_; }

    /** Convenience: allocate zeroed, mapped (hence pinned) memory. */
    vm::VAddr
    alloc(std::uint64_t bytes)
    {
        return as_.alloc(bytes);
    }

  private:
    std::uint32_t pid_;
    UserId uid_;
    vm::AddressSpace as_;
};

/**
 * Per-node OS: owns the frame allocator and the process table, and
 * hands out pinned kernel memory for RMC control structures.
 */
class NodeOs
{
  public:
    /**
     * @param phys the node's physical memory
     * @param kernelReserve bytes at the bottom of PA space reserved for
     *        kernel structures (CT, ITT, page tables share the pool)
     */
    NodeOs(mem::PhysMem &phys, std::uint64_t kernelReserve = 1ull << 20);

    mem::PhysMem &phys() { return phys_; }
    vm::FrameAllocator &frames() { return frames_; }

    /** Spawn a process owned by @p uid. */
    Process &createProcess(UserId uid);

    /** Allocate pinned, zeroed, physically-contiguous kernel memory. */
    mem::PAddr allocKernel(std::uint64_t bytes);

  private:
    mem::PhysMem &phys_;
    std::uint64_t kernelReserve_;
    mem::PAddr kernelBrk_ = 0;
    vm::FrameAllocator frames_;
    std::vector<std::unique_ptr<Process>> processes_;
};

} // namespace sonuma::os

#endif // SONUMA_OS_NODE_OS_HH
