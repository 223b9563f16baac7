#include "net/fabric.hpp"

namespace lwmpi::net {

Fabric::Fabric(int nranks, int ranks_per_node, Profile profile, int lanes_per_rank,
               std::string_view netmod, bool lamport)
    : mod_(make_netmod(netmod, nranks, ranks_per_node, std::move(profile),
                       lanes_per_rank)),
      clock_(std::make_unique<std::atomic<std::uint64_t>[]>(
          static_cast<std::size_t>(nranks < 1 ? 1 : nranks))),
      lamport_(lamport) {}

Fabric::~Fabric() = default;

}  // namespace lwmpi::net
