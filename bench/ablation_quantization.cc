/**
 * @file
 * Ablation: INT8 Key Objects for NMA scoring (the "any signed data
 * type" capability of in-memory filtering, §4, applied to the scoring
 * stage the way DynaX applies low-bit keys, §3.2), timing-only.
 *
 * The quality side of this ablation — selection overlap and retained
 * mass under INT8-perturbed scores, and where INT8 estimation lands
 * against the sign-plane scan — lives in bench/pareto_harness now,
 * which sweeps every filter family on one corpus instead of
 * duplicating a per-bench scoring loop here.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "drex/drex_device.hh"
#include "util/table.hh"

int
main()
{
    using namespace longsight;
    constexpr uint32_t kDim = 128;

    // Timing: where INT8 does and does not help at DReX scale.
    DrexConfig dc;
    dc.numKvHeads = 8;
    dc.numLayers = 32;
    dc.headDim = kDim;
    TextTable t("Ablation: INT8 effect on offload phases (timing-only)");
    t.setHeader({"Context", "BF16 score [us]", "INT8 score [us]",
                 "BF16 resp [KB]", "INT8 resp [KB]"});
    for (uint64_t ctx : {65536ull, 262144ull, 1'000'000ull}) {
        DrexDevice d1(dc), d2(dc);
        OffloadSpec spec;
        spec.sparseEnd = ctx;
        spec.survivorFraction = 0.09;
        OffloadSpec qspec = spec;
        qspec.quantizedScoring = true;
        const auto rf = d1.nma(0).process(0, spec);
        const auto rq = d2.nma(0).process(0, qspec);
        t.addRow({fmtTokens(ctx),
                  TextTable::num(toMicroseconds(rf.timing.score)),
                  TextTable::num(toMicroseconds(rq.timing.score)),
                  TextTable::num(rf.valueBytes / 1024.0, 1),
                  TextTable::num(rq.valueBytes / 1024.0, 1)});
    }
    t.print(std::cout);
    std::cout << "Two findings: (1) INT8 keys do NOT speed the scoring "
                 "fetch — SCF\nsurvivors are scattered, so every key pays "
                 "full DRAM burst granularity\nregardless of its payload "
                 "width; (2) INT8 *values* nearly halve the CXL\nresponse "
                 "payload, which Fig. 8 shows is the short-context and "
                 "full-\nutilization bottleneck. Quantization helps the "
                 "link, not the banks.\n";
    return 0;
}
