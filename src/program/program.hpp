/**
 * @file
 * A Program: the set of modules sharing one address space, plus the
 * stack/heap layout. Mirrors the process image REV validates.
 */

#ifndef REV_PROGRAM_PROGRAM_HPP
#define REV_PROGRAM_PROGRAM_HPP

#include <deque>

#include "common/sparse_memory.hpp"
#include "program/module.hpp"

namespace rev::prog
{

/** Default load address of the first module. */
inline constexpr Addr kDefaultCodeBase = 0x10000;

/** Guard gap between consecutive modules. */
inline constexpr Addr kModuleGap = 0x1000;

/**
 * Address-space map (all regions disjoint):
 *   [kDefaultCodeBase ..)          module images (code + data), < 16 MB
 *   [kHeapBase .. kHeapBase+256MB) scratch heap for workload data
 *   [kStackTop - kStackSize ..)    downward-growing stack
 *   [sig::kSigTableRegion ..)      encrypted signature tables
 */

/** Top of the downward-growing stack. */
inline constexpr Addr kStackTop = 0x18000000;

/** Size reserved for the stack. */
inline constexpr Addr kStackSize = 0x100000;

/** Base of the scratch heap region programs may use freely (256 MB). */
inline constexpr Addr kHeapBase = 0x4000000;

/**
 * A multi-module program.
 */
class Program
{
  public:
    /** Add a module (already linked at its base). Module 0 is "main". */
    void addModule(Module mod) { modules_.push_back(std::move(mod)); }

    /** Next free base address for linking another module. */
    Addr nextModuleBase() const;

    const std::deque<Module> &modules() const { return modules_; }
    std::deque<Module> &modules() { return modules_; }

    const Module &main() const { return modules_.front(); }

    /** Module containing @p addr in its image, or nullptr. */
    const Module *findModule(Addr addr) const;

    /** Entry point of the main module. */
    Addr entry() const { return main().entry; }

    /** Initial stack pointer value. */
    static Addr initialSp() { return kStackTop; }

    /** Copy all module images into @p mem. */
    void loadInto(SparseMemory &mem) const;

  private:
    /** A deque so adding a module (the dynamic linker) never moves the
     *  others: signature builds and snapshots point at them. */
    std::deque<Module> modules_;
};

} // namespace rev::prog

#endif // REV_PROGRAM_PROGRAM_HPP
