/**
 * @file
 * Self-contained failure reproducers. When a harness (the fuzz
 * oracle, the fault-isolated suite evaluator) survives a failing
 * cell, it writes the complete recipe — ILC source, input bytes,
 * model, ablation flags, and the failure classification — to a
 * single file a developer can replay by hand. The file is valid ILC:
 * all metadata lives in a `//` comment header above the source.
 */

#ifndef PREDILP_DRIVER_REPRODUCER_HH
#define PREDILP_DRIVER_REPRODUCER_HH

#include <cstdint>
#include <string>

#include "driver/pipeline.hh"

namespace predilp
{

/** Everything needed to re-run one failing compile/execute cell. */
struct ReproducerSpec
{
    /** Short slug naming the failing cell (workload or fuzz case). */
    std::string title;
    /** Generator seed, meaningful only when hasSeed is set. */
    std::uint64_t seed = 0;
    bool hasSeed = false;
    /** Model the failure occurred under (modelName form). */
    std::string model;
    /** Ablation flags in effect. */
    AblationFlags ablation;
    /** Suite scale multiplier (1 for fuzz cases). */
    int scale = 1;
    /** Taxonomy label from classifyException(). */
    std::string kind;
    /** The failure's what() message. */
    std::string message;
    /** Input bytes fed to the program (may contain NUL). */
    std::string input;
    /** The ILC source of the failing program. */
    std::string source;
};

/** Render @p spec as the reproducer file text (see file comment). */
std::string renderReproducer(const ReproducerSpec &spec);

/**
 * Write @p spec under @p dir (created if absent) as
 * `<title>-<kind>.ilc`, slugged to filesystem-safe characters.
 * @return the path written, or "" if the write failed — a
 * reproducer must never turn a survivable failure into a fatal one.
 */
std::string writeReproducer(const std::string &dir,
                            const ReproducerSpec &spec);

} // namespace predilp

#endif // PREDILP_DRIVER_REPRODUCER_HH
