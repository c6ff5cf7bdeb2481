#include "scenarios/micro.h"

#include "scenarios/builder.h"

namespace asilkit::scenarios {

ArchitectureModel chain_1in_1out() {
    ScenarioBuilder b("chain-1in-1out");
    const LocationId front = b.loc("front");
    const LocationId center = b.loc("center");
    const NodeId s = b.sensor("sens", Asil::D, front);
    const NodeId cin = b.comm("c_in", Asil::D, front);
    const NodeId n = b.func("n", Asil::D, center);
    const NodeId cout = b.comm("c_out", Asil::D, center);
    const NodeId a = b.actuator("act", Asil::D, center);
    b.chain({s, cin, n, cout, a});
    return b.take();
}

ArchitectureModel chain_1in_2out() {
    ScenarioBuilder b("chain-1in-2out");
    const LocationId front = b.loc("front");
    const LocationId center = b.loc("center");
    const LocationId rear = b.loc("rear");
    const NodeId s = b.sensor("sens", Asil::D, front);
    const NodeId cin = b.comm("c_in", Asil::D, front);
    const NodeId n = b.func("n", Asil::D, center);
    const NodeId c1 = b.comm("c_out1", Asil::D, center);
    const NodeId c2 = b.comm("c_out2", Asil::D, center);
    const NodeId a1 = b.actuator("act1", Asil::D, center);
    const NodeId a2 = b.actuator("act2", Asil::D, rear);
    b.chain({s, cin, n, c1, a1});
    b.link(n, c2);
    b.link(c2, a2);
    return b.take();
}

ArchitectureModel chain_3in_3out() {
    ScenarioBuilder b("chain-3in-3out");
    const LocationId front = b.loc("front");
    const LocationId center = b.loc("center");
    const LocationId rear = b.loc("rear");
    const NodeId n = b.func("n", Asil::D, center);
    for (int i = 1; i <= 3; ++i) {
        const NodeId s = b.sensor("sens" + std::to_string(i), Asil::D, front);
        const NodeId c = b.comm("c_in" + std::to_string(i), Asil::D, front);
        b.chain({s, c, n});
    }
    for (int i = 1; i <= 3; ++i) {
        const NodeId c = b.comm("c_out" + std::to_string(i), Asil::D, rear);
        const NodeId a = b.actuator("act" + std::to_string(i), Asil::D, rear);
        b.chain({n, c, a});
    }
    return b.take();
}

ArchitectureModel chain_two_stages() {
    ScenarioBuilder b("chain-two-stages");
    const LocationId front = b.loc("front");
    const LocationId center = b.loc("center");
    const NodeId s = b.sensor("sens", Asil::D, front);
    const NodeId c0 = b.comm("c0", Asil::D, front);
    const NodeId n1 = b.func("n1", Asil::D, center);
    const NodeId cmid = b.comm("c_mid", Asil::D, center);
    const NodeId n2 = b.func("n2", Asil::D, center);
    const NodeId c5 = b.comm("c5", Asil::D, center);
    const NodeId a = b.actuator("act", Asil::D, center);
    b.chain({s, c0, n1, cmid, n2, c5, a});
    return b.take();
}

ArchitectureModel chain_n_stages(std::size_t stages, Asil level) {
    ScenarioBuilder b("chain-" + std::to_string(stages) + "-stages");
    const LocationId front = b.loc("front");
    const LocationId center = b.loc("center");
    NodeId prev = b.sensor("sens", level, front);
    {
        const NodeId c = b.comm("c0", level, front);
        b.link(prev, c);
        prev = c;
    }
    for (std::size_t i = 1; i <= stages; ++i) {
        const NodeId f = b.func(std::string("f").append(std::to_string(i)), level, center);
        const NodeId c = b.comm(std::string("c").append(std::to_string(i)), level, center);
        b.link(prev, f);
        b.link(f, c);
        prev = c;
    }
    const NodeId a = b.actuator("act", level, center);
    b.link(prev, a);
    return b.take();
}

}  // namespace asilkit::scenarios
