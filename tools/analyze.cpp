// Static-verification driver: runs the canary-protocol prover over the
// scheme × workload × link-mode matrix and gates CI on three properties:
//
//   1. protocol  — every cell proves clean (no violations), and every
//                  function's proven profile (protected set, slot byte
//                  ranges, canary-source mask) matches what the scheme's
//                  own frame plan predicts (compiler::plan_for_function,
//                  analysis::expected_sources);
//   2. rewriter  — for the SSP cells, upgrade_to_pssp() is audited pre/
//                  post: proofs clean both sides, skipped-function
//                  accounting exact, prologue/epilogue patches paired,
//                  layout bit-identical (analysis::audit_rewrite);
//   3. mutation  — seeded single-op corruptions of every install/check
//                  sequence must each be caught (run_mutation_self_test):
//                  0 false negatives on mutants, 0 findings on the clean
//                  builds.
//
// Exit 0 only if every selected cell passes everything.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/canary_proof.hpp"
#include "analysis/mutate.hpp"
#include "compiler/codegen.hpp"
#include "core/scheme.hpp"
#include "rewriter/rewriter.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace pssp;

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--scheme S|all] [--workload W|all]\n"
                 "          [--mode dynamic|static|all] [--no-mutation]\n"
                 "          [--json PATH|-] [--list] [-v]\n"
                 "  --scheme S     one scheme as --list spells it (e.g. SSP,\n"
                 "                 P-SSP) or 'all'\n"
                 "  --workload W   one catalog workload or 'all'\n"
                 "  --mode M       link mode(s) to build (default all)\n"
                 "  --no-mutation  skip the mutation self-test stage\n"
                 "  --json PATH    write the matrix as deterministic JSON\n"
                 "  --list         print schemes and workloads, then exit\n"
                 "  -v             per-function detail on failures\n",
                 argv0);
}

struct cell_result {
    std::string scheme, workload, mode;
    int functions_analyzed = 0;
    int functions_protected = 0;
    int violations = 0;
    int profile_mismatches = 0;
    int audit_issues = -1;     // -1 = audit not applicable to this cell
    int mutation_sites = -1;   // -1 = mutation stage not run on this cell
    int mutation_missed = 0;
    bool pass = false;
    std::vector<std::string> messages;
};

// Byte-coverage union of half-open [offset, offset+bytes) ranges, so the
// analyzer's slot granularity (OWF records nonce and ciphertext apart)
// compares against the plan's (one 24-byte area) without aliasing.
[[nodiscard]] std::set<std::int32_t> covered_bytes(
    const std::vector<analysis::slot_record>& slots) {
    std::set<std::int32_t> bytes;
    for (const auto& s : slots)
        for (std::int32_t b = 0; b < s.bytes; ++b) bytes.insert(s.offset + b);
    return bytes;
}

[[nodiscard]] std::set<std::int32_t> planned_bytes(const core::frame_plan& plan) {
    std::set<std::int32_t> bytes;
    for (const auto& c : plan.canaries)
        for (std::int32_t b = 0; b < c.bytes; ++b) bytes.insert(c.offset + b);
    return bytes;
}

cell_result run_cell(core::scheme_kind kind, const std::string& workload_name,
                     binfmt::link_mode mode, bool with_mutation) {
    cell_result cell;
    cell.scheme = core::to_string(kind);
    cell.workload = workload_name;
    cell.mode = mode == binfmt::link_mode::dynamic_glibc ? "dynamic" : "static";

    const auto mod = workload::make_catalog_module(workload_name);
    const auto sch =
        std::shared_ptr<const core::scheme>(core::make_scheme(kind));
    const auto binary = compiler::build_module(mod, sch, mode);
    const auto proof = analysis::prove_canary_protocol(binary);

    // ---- Stage 1: protocol + profile-vs-plan cross-check -----------------
    for (const auto& fn : mod.functions) {
        const auto* proven = proof.find(fn.name);
        if (proven == nullptr || !proven->analyzed) {
            ++cell.profile_mismatches;
            cell.messages.push_back(fn.name + ": module function not analyzed");
            continue;
        }
        ++cell.functions_analyzed;
        cell.violations += static_cast<int>(proven->violations.size());
        for (const auto& v : proven->violations)
            cell.messages.push_back(v.function + " @op " +
                                    std::to_string(v.op_index) + ": " + v.message);

        const auto plan = compiler::plan_for_function(fn, *sch);
        if (plan.protected_frame != proven->is_protected) {
            ++cell.profile_mismatches;
            cell.messages.push_back(
                fn.name + ": plan says protected=" +
                std::to_string(plan.protected_frame) + ", proof says " +
                std::to_string(proven->is_protected));
            continue;
        }
        if (!proven->is_protected) continue;
        ++cell.functions_protected;
        if (covered_bytes(proven->slots) != planned_bytes(plan)) {
            ++cell.profile_mismatches;
            cell.messages.push_back(fn.name +
                                    ": proven canary slots do not cover the "
                                    "planned canary byte ranges");
        }
        const auto expected =
            analysis::expected_sources(kind, plan.canaries.size());
        if (proven->sources != expected) {
            ++cell.profile_mismatches;
            cell.messages.push_back(
                fn.name + ": canary sources " +
                analysis::source_names(proven->sources) + ", expected " +
                analysis::source_names(expected));
        }
    }

    // ---- Stage 2: rewriter audit (SSP cells feed the rewriter) -----------
    if (kind == core::scheme_kind::ssp) {
        const auto audit = analysis::audit_rewrite(binary);
        cell.audit_issues = static_cast<int>(audit.issues.size());
        for (const auto& issue : audit.issues)
            cell.messages.push_back("audit: " + issue.function + ": " +
                                    issue.message);
    }

    // ---- Stage 3: mutation self-test --------------------------------------
    if (with_mutation && kind != core::scheme_kind::none) {
        auto mutation_input = binary;
        if (kind == core::scheme_kind::ssp)
            // Mutate the *upgraded* image for SSP: the rewritten epilogue
            // (checking-call shape) is the harder catch.
            rewriter::binary_rewriter{}.upgrade_to_pssp(mutation_input);
        const auto mutation = analysis::run_mutation_self_test(mutation_input);
        cell.mutation_sites = static_cast<int>(mutation.outcomes.size());
        cell.mutation_missed = mutation.missed();
        if (mutation.clean_violations != 0)
            cell.messages.push_back(
                "mutation: clean build reported " +
                std::to_string(mutation.clean_violations) + " violations");
        for (const auto& o : mutation.outcomes)
            if (!o.caught)
                cell.messages.push_back(
                    "mutation MISSED: " + analysis::to_string(o.site.kind) + " " +
                    o.site.function + "@" + std::to_string(o.site.insn_index) +
                    ": " + o.how);
        if (mutation.clean_violations != 0) ++cell.mutation_missed;
    }

    cell.pass = cell.violations == 0 && cell.profile_mismatches == 0 &&
                cell.audit_issues <= 0 && cell.mutation_missed == 0;
    return cell;
}

void write_json(const std::vector<cell_result>& cells, std::FILE* out) {
    std::fprintf(out, "{\n  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        std::fprintf(out,
                     "    {\"scheme\": \"%s\", \"workload\": \"%s\", "
                     "\"mode\": \"%s\", \"analyzed\": %d, \"protected\": %d, "
                     "\"violations\": %d, \"profile_mismatches\": %d, "
                     "\"audit_issues\": %d, \"mutation_sites\": %d, "
                     "\"mutation_missed\": %d, \"pass\": %s}%s\n",
                     c.scheme.c_str(), c.workload.c_str(), c.mode.c_str(),
                     c.functions_analyzed, c.functions_protected, c.violations,
                     c.profile_mismatches, c.audit_issues, c.mutation_sites,
                     c.mutation_missed, c.pass ? "true" : "false",
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
    std::string scheme_arg = "all";
    std::string workload_arg = "all";
    std::string mode_arg = "all";
    std::string json_path;
    bool with_mutation = true;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scheme") {
            scheme_arg = next();
        } else if (arg == "--workload") {
            workload_arg = next();
        } else if (arg == "--mode") {
            mode_arg = next();
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--no-mutation") {
            with_mutation = false;
        } else if (arg == "-v") {
            verbose = true;
        } else if (arg == "--list") {
            std::printf("schemes:\n");
            for (const auto kind : core::all_scheme_kinds())
                std::printf("  %s\n", core::to_string(kind).c_str());
            std::printf("workloads:\n");
            for (const auto& entry : workload::workload_catalog())
                std::printf("  %-10s %s\n", entry.name.c_str(),
                            entry.description.c_str());
            return 0;
        } else {
            usage(argv[0]);
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    std::vector<core::scheme_kind> kinds;
    if (scheme_arg == "all") {
        kinds = core::all_scheme_kinds();
    } else {
        try {
            kinds.push_back(core::scheme_kind_from_string(scheme_arg));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    std::vector<std::string> workloads;
    if (workload_arg == "all") {
        for (const auto& entry : workload::workload_catalog())
            workloads.push_back(entry.name);
    } else {
        workloads.push_back(workload_arg);
    }

    std::vector<binfmt::link_mode> modes;
    if (mode_arg == "all" || mode_arg == "dynamic")
        modes.push_back(binfmt::link_mode::dynamic_glibc);
    if (mode_arg == "all" || mode_arg == "static")
        modes.push_back(binfmt::link_mode::static_glibc);
    if (modes.empty()) {
        usage(argv[0]);
        return 2;
    }

    std::vector<cell_result> cells;
    int failures = 0;
    for (const auto kind : kinds) {
        for (const auto& workload_name : workloads) {
            for (const auto mode : modes) {
                cell_result cell;
                try {
                    // Run the mutation stage once per scheme×workload — it
                    // re-proves every mutant; the dynamic and static images
                    // share all instrumentation shapes except the epilogue
                    // call target, which the SSP audit covers in both modes.
                    const bool mutate_here =
                        with_mutation && mode == modes.front();
                    cell = run_cell(kind, workload_name, mode, mutate_here);
                } catch (const std::exception& e) {
                    cell.scheme = core::to_string(kind);
                    cell.workload = workload_name;
                    cell.mode = mode == binfmt::link_mode::dynamic_glibc
                                    ? "dynamic"
                                    : "static";
                    cell.messages.push_back(std::string{"exception: "} + e.what());
                }
                if (!cell.pass) ++failures;
                std::printf(
                    "%-12s %-9s %-8s analyzed=%-2d protected=%-2d "
                    "violations=%-2d mismatches=%-2d audit=%-3d "
                    "mutants=%d/%d  %s\n",
                    cell.scheme.c_str(), cell.workload.c_str(), cell.mode.c_str(),
                    cell.functions_analyzed, cell.functions_protected,
                    cell.violations, cell.profile_mismatches, cell.audit_issues,
                    cell.mutation_sites < 0
                        ? 0
                        : cell.mutation_sites - cell.mutation_missed,
                    cell.mutation_sites < 0 ? 0 : cell.mutation_sites,
                    cell.pass ? "PASS" : "FAIL");
                if (!cell.pass || verbose)
                    for (const auto& m : cell.messages)
                        std::printf("    %s\n", m.c_str());
                cells.push_back(std::move(cell));
            }
        }
    }

    if (!json_path.empty()) {
        if (json_path == "-") {
            write_json(cells, stdout);
        } else {
            std::FILE* f = std::fopen(json_path.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
                return 2;
            }
            write_json(cells, f);
            std::fclose(f);
        }
    }

    std::printf("%zu cells, %d failing\n", cells.size(), failures);
    return failures == 0 ? 0 : 1;
}
