// Visualizes the (n/k, O(k))-MST forests that Controlled-GHS builds on a
// grid: each cell shows a letter identifying its fragment. Growing k
// produces fewer, larger fragments with controlled diameters — the paper's
// base forest trade-off made visible.

#include <iostream>
#include <map>

#include "dmst/core/controlled_ghs.h"
#include "dmst/graph/generators.h"
#include "dmst/util/cli.h"
#include "dmst/util/rng.h"

int main(int argc, char** argv)
{
    using namespace dmst;

    Args args;
    args.define("rows", "12", "grid rows");
    args.define("cols", "32", "grid columns");
    args.define("seed", "3", "weight seed");
    try {
        args.parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }
    const std::size_t rows = args.get_int("rows");
    const std::size_t cols = args.get_int("cols");

    Rng rng(args.get_int("seed"));
    auto g = gen_grid(rows, cols, rng);

    for (std::uint64_t k : {2ull, 4ull, 16ull, 64ull}) {
        GhsOptions opts;
        opts.k = k;
        auto r = run_controlled_ghs(g, opts);

        // Stable letter per fragment, in first-appearance order.
        std::map<std::uint64_t, char> letter;
        const char* alphabet =
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        for (std::uint64_t fid : r.fragment_id) {
            if (!letter.count(fid))
                letter[fid] = alphabet[letter.size() % 62];
        }

        std::cout << "k=" << k << ": " << r.fragment_count()
                  << " fragments, rounds=" << r.stats.rounds
                  << ", messages=" << r.stats.messages << "\n";
        for (std::size_t row = 0; row < rows; ++row) {
            for (std::size_t col = 0; col < cols; ++col)
                std::cout << letter[r.fragment_id[row * cols + col]];
            std::cout << "\n";
        }
        std::cout << "\n";
    }
    return 0;
}
