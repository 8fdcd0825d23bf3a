//! Reproduce one data point of the paper's evaluation in a few seconds:
//! run the airline workload on a simulated cluster (default 40 nodes)
//! for all three systems and print the Figure 5/6 metrics side by side.
//!
//! ```text
//! cargo run --release --example simulated_cluster [nodes]
//! ```

use hlock::core::ProtocolConfig;
use hlock::sim::LatencyModel;
use hlock::workload::{run_experiment, ProtocolKind, WorkloadConfig};

fn main() {
    let nodes: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(40);
    let workload = WorkloadConfig::default();
    let latency = LatencyModel::paper();
    let base = latency.mean();

    println!(
        "airline workload on {nodes} simulated nodes ({} table entries, {} ops/node,\n\
         mode mix IR/R/U/IW/W = 80/10/4/5/1 %, cs ~15 ms, idle ~150 ms, net ~150 ms)\n",
        workload.entries, workload.ops_per_node
    );
    println!(
        "{:<20} {:>14} {:>16} {:>10} {:>10}",
        "system", "msgs/request", "latency factor", "requests", "messages"
    );
    for kind in [
        ProtocolKind::Hierarchical(ProtocolConfig::default()),
        ProtocolKind::NaimiSameWork,
        ProtocolKind::NaimiPure,
    ] {
        let report =
            run_experiment(kind, nodes, &workload, latency, 0, None).expect("simulation completes");
        assert!(report.quiescent, "all requests served");
        let m = report.metrics;
        println!(
            "{:<20} {:>14.2} {:>15.1}x {:>10} {:>10}",
            kind.label(),
            m.messages_per_request(),
            m.latency_factor(base),
            m.total_requests(),
            m.total_messages(),
        );
    }
    println!(
        "\nthe hierarchical protocol serves compatible requests concurrently and\n\
         absorbs requests into local queues — fewer messages *and* it provides\n\
         multi-granularity modes the baseline cannot."
    );
}
