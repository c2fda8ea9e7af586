/**
 * @file
 * Run-time attack injection framework (Table 1 of the paper).
 *
 * Each attack builds a small victim program and arms a tampering hook that
 * fires while the victim executes on the simulated machine — overwriting
 * code bytes, smashing stack return addresses, or corrupting function-
 * pointer tables, exactly the classes in Table 1. The framework then
 * reports whether REV detected the compromise and via which mechanism.
 */

#ifndef REV_ATTACKS_ATTACK_HPP
#define REV_ATTACKS_ATTACK_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "validate/coverage.hpp"

namespace rev::attacks
{

/**
 * Tampering taxonomy (Sec. V.D / Table 1). Every concrete attack — and
 * every machine-generated injection in src/redteam — belongs to one of
 * these classes, and per-(backend, mode) detectability is a property of
 * the class, not of the individual attack binary. The taxonomy and the
 * per-backend claimed-coverage matrix live in validate/coverage.hpp.
 */
using validate::TamperClass;
using validate::tamperClassName;

/** Result of one attack run. */
struct AttackOutcome
{
    bool triggered = false; ///< the tampering hook actually fired
    bool detected = false;  ///< REV raised a validation exception
    std::string reason;     ///< violation reason (empty if undetected)
    cpu::RunResult run;

    /** True if the attack achieved its goal (tainted state / ran code). */
    bool succeeded = false;
};

/**
 * Base class of all injected attacks.
 */
class Attack
{
  public:
    virtual ~Attack() = default;

    /** Table 1 row name, e.g. "return-oriented". */
    virtual const char *name() const = 0;

    /** Table 1 "How REV detects" summary. */
    virtual const char *table1Mechanism() const = 0;

    /** Taxonomy class of this attack's tampering. */
    virtual TamperClass tamperClass() const = 0;

    /**
     * Whether this attack is detectable by @p backend in @p mode.
     * Derived from the taxonomy's claimed-coverage matrix — per-attack
     * overrides are deliberately impossible, so expectations in the
     * table/bench binaries always match the class.
     */
    bool
    detectableIn(sig::ValidationMode mode,
                 validate::Backend backend = validate::Backend::Rev) const
    {
        return validate::backendClaims(backend, tamperClass(), mode);
    }

    /** Build the victim, arm the tamper hook, run, and report. */
    AttackOutcome execute(const core::SimConfig &cfg);

  protected:
    /** Build the victim program (called once per execute()). */
    virtual prog::Program buildVictim() = 0;

    /** Install the tampering hook on the simulator. */
    virtual void arm(core::Simulator &sim) = 0;

    /** Judge post-run whether the attack's goal was achieved. */
    virtual bool goalAchieved(core::Simulator &sim) = 0;

    prog::Program victim_;
    bool triggered_ = false;
};

/** All Table 1 attacks, in paper order. */
std::vector<std::unique_ptr<Attack>> makeAllAttacks();

} // namespace rev::attacks

#endif // REV_ATTACKS_ATTACK_HPP
