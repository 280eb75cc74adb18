#include "constructions/peephole.h"

#include <vector>

namespace qd::ctor {

std::size_t
cancel_inverse_pairs(Circuit& circuit, std::size_t first_op)
{
    std::vector<std::size_t> erased;
    for (const auto& [i, j] : inverse_pairs(circuit.ops(),
                                            circuit.num_wires(), kLooseTol,
                                            first_op)) {
        erased.push_back(i);
        erased.push_back(j);
    }
    circuit.erase_ops(erased);
    return erased.size() / 2;
}

}  // namespace qd::ctor
