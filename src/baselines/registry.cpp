#include "baselines/registry.hpp"

#include <stdexcept>

#include "baselines/aestar.hpp"
#include "baselines/annealing.hpp"
#include "baselines/auctions.hpp"
#include "baselines/glauber.hpp"
#include "baselines/gra.hpp"
#include "baselines/greedy.hpp"
#include "baselines/local_search.hpp"
#include "baselines/selfish_caching.hpp"
#include "core/agt_ram.hpp"

namespace agtram::baselines {

std::vector<AlgorithmEntry> all_algorithms(const AlgoOptions& options) {
  std::vector<AlgorithmEntry> algorithms;
  algorithms.push_back(AlgorithmEntry{
      "Greedy", [options](const drp::Problem& p, std::uint64_t) {
        GreedyConfig cfg;
        cfg.eval = options.eval;
        return run_greedy(p, cfg);
      }});
  algorithms.push_back(AlgorithmEntry{
      "GRA", [options](const drp::Problem& p, std::uint64_t seed) {
        GraConfig cfg;
        cfg.seed = seed;
        cfg.eval = options.eval;
        return run_gra(p, cfg);
      }});
  algorithms.push_back(AlgorithmEntry{
      "Ae-Star", [options](const drp::Problem& p, std::uint64_t) {
        AeStarConfig cfg;
        cfg.eval = options.eval;
        return run_aestar(p, cfg);
      }});
  algorithms.push_back(AlgorithmEntry{
      "AGT-RAM", [](const drp::Problem& p, std::uint64_t) {
        return core::run_agt_ram(p).placement;
      }});
  algorithms.push_back(AlgorithmEntry{
      "DA", [](const drp::Problem& p, std::uint64_t seed) {
        DutchAuctionConfig cfg;
        cfg.seed = seed;
        return run_dutch_auction(p, cfg);
      }});
  algorithms.push_back(AlgorithmEntry{
      "EA", [](const drp::Problem& p, std::uint64_t seed) {
        EnglishAuctionConfig cfg;
        cfg.seed = seed;
        return run_english_auction(p, cfg);
      }});
  return algorithms;
}

std::vector<AlgorithmEntry> extended_algorithms(const AlgoOptions& options) {
  std::vector<AlgorithmEntry> algorithms = all_algorithms(options);
  // The seventh baseline: genuinely distributed Glauber dynamics (the
  // paper's six stay in all_algorithms so its tables keep their shape).
  algorithms.push_back(AlgorithmEntry{
      "Glauber", [options](const drp::Problem& p, std::uint64_t seed) {
        GlauberConfig cfg;
        cfg.seed = seed;
        cfg.eval = options.eval;
        return run_glauber(p, cfg).placement;
      }});
  algorithms.push_back(AlgorithmEntry{
      "Selfish", [options](const drp::Problem& p, std::uint64_t seed) {
        SelfishCachingConfig cfg;
        cfg.seed = seed;
        cfg.eval = options.eval;
        return run_selfish_caching(p, cfg).placement;
      }});
  algorithms.push_back(AlgorithmEntry{
      "LocalSearch", [options](const drp::Problem& p, std::uint64_t seed) {
        LocalSearchConfig cfg;
        cfg.seed = seed;
        cfg.eval = options.eval;
        return run_local_search(p, cfg);
      }});
  algorithms.push_back(AlgorithmEntry{
      "SA", [options](const drp::Problem& p, std::uint64_t seed) {
        AnnealingConfig cfg;
        cfg.seed = seed;
        cfg.eval = options.eval;
        return run_annealing(p, cfg);
      }});
  return algorithms;
}

AlgorithmEntry find_algorithm(const std::string& name,
                              const AlgoOptions& options) {
  for (auto& entry : extended_algorithms(options)) {
    if (entry.name == name) return entry;
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

}  // namespace agtram::baselines
