//! **Figure 5 — Scalability Behavior**: average number of messages per
//! lock request as the number of nodes grows, for our protocol, Naimi
//! doing the same work, and Naimi pure.
//!
//! Paper shape: our protocol rises to a flat asymptote of ≈3 messages;
//! Naimi pure is slightly above (≈4); Naimi same-work is clearly higher
//! and keeps growing.
//!
//! ```text
//! cargo run --release -p hlock-bench --bin fig5_message_overhead [--quick]
//! ```

use hlock_bench::{Harness, ResultTable};
use hlock_core::{LockId, LockPlan, LockSpace, Mode, NodeId, ProtocolConfig};
use hlock_sim::{Duration, Metrics, Sim, SimConfig};
use hlock_workload::{PlanDriver, ProtocolKind};

/// The batching headline scenario: every node pipelines multi-granularity
/// lock sets (`IR` on the shared table, then `R`/`W` on its own entry)
/// whose token homes coincide, so both requests of a set ride one wire
/// frame. Returns the merged metrics including frame accounting.
fn batched_lockset_metrics(nodes: usize) -> Metrics {
    let table = LockId(0);
    let lock_count = nodes; // table + one entry per non-home node
    let plans: Vec<Vec<LockPlan>> = (0..nodes)
        .map(|i| {
            if i == 0 {
                Vec::new()
            } else {
                let entry = LockId(i as u32);
                vec![
                    LockPlan::for_leaf(&[table], entry, Mode::Read),
                    LockPlan::for_leaf(&[table], entry, Mode::Write),
                ]
            }
        })
        .collect();
    let spaces: Vec<LockSpace> = (0..nodes)
        .map(|i| LockSpace::new(NodeId(i as u32), lock_count, NodeId(0), ProtocolConfig::paper()))
        .collect();
    let driver =
        PlanDriver::new(plans, Duration::from_millis(10), Duration::from_millis(30)).pipelined();
    let cfg = SimConfig { seed: 42, lock_count, check_every: 1, ..SimConfig::default() };
    let report = Sim::new(spaces, driver, cfg)
        .with_frame_sizer(|messages| {
            let mut buf = Vec::new();
            hlock_wire::frame::write_batch(&mut buf, NodeId(0), messages);
            buf.len() as u64
        })
        .run()
        .expect("batched lock-set scenario violated an invariant");
    assert!(report.quiescent);
    report.metrics
}

/// Hand-rolled JSON (no serde in the bench path): frame economy of the
/// batched runtime, written to `target/experiments/<name>.json`.
fn save_batching_json(name: &str, nodes: usize, m: &Metrics) -> Option<std::path::PathBuf> {
    let json = format!(
        "{{\n  \"scenario\": \"pipelined multi-granularity lock sets, shared token home\",\n  \
           \"nodes\": {nodes},\n  \
           \"logical_messages\": {},\n  \
           \"frames\": {},\n  \
           \"coalesce_ratio\": {:.4},\n  \
           \"wire_bytes\": {},\n  \
           \"grants\": {},\n  \
           \"bytes_per_grant\": {:.2}\n}}\n",
        m.total_messages(),
        m.total_frames(),
        m.coalesce_ratio(),
        m.wire_bytes(),
        m.total_grants(),
        m.bytes_per_grant(),
    );
    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).ok()?;
    Some(path)
}

fn main() {
    let harness = Harness::from_args();
    let kinds = [
        ProtocolKind::NaimiSameWork,
        ProtocolKind::NaimiPure,
        ProtocolKind::Hierarchical(ProtocolConfig::paper()),
    ];
    let mut table = ResultTable::new(
        "Figure 5: message overhead (messages per lock request) vs number of nodes",
        "nodes",
        kinds.iter().map(|k| k.label().to_string()).collect(),
    );
    let mut per_op = ResultTable::new(
        "Figure 5 (alternate normalization): messages per application operation",
        "nodes",
        kinds.iter().map(|k| k.label().to_string()).collect(),
    );
    for &nodes in &harness.sweep {
        // Same logical operations for all three systems.
        let ops = (nodes as u64 * u64::from(harness.workload.ops_per_node) * harness.seeds) as f64;
        let mut row = Vec::new();
        let mut op_row = Vec::new();
        for &k in &kinds {
            let m = harness.measure(k, nodes);
            row.push(m.messages_per_request());
            op_row.push(m.total_messages() as f64 / ops);
        }
        println!(
            "nodes={nodes:>3}  same-work={:.2}  pure={:.2}  ours={:.2}   (per op: {:.1} / {:.1} / {:.1})",
            row[0], row[1], row[2], op_row[0], op_row[1], op_row[2]
        );
        table.push_row(nodes, row);
        per_op.push_row(nodes, op_row);
    }
    println!("\n{}", table.render());
    println!("{}", per_op.render());
    if let Some(p) = table.save_csv("fig5_message_overhead") {
        println!("csv: {}", p.display());
    }
    if let Some(p) = per_op.save_csv("fig5_per_operation") {
        println!("csv: {}", p.display());
    }
    if let (Some(ours), Some(pure)) = (table.last(2), table.last(1)) {
        println!(
            "\npaper claim at 120 nodes: ours ≈ 3 msgs vs Naimi pure ≈ 4 msgs; \
             measured: ours = {ours:.2}, pure = {pure:.2}"
        );
    }

    // Frame economy of the batched runtime (extension): pipelined
    // hierarchical lock sets over a shared token home must put strictly
    // fewer frames than logical messages on the wire.
    let batch_nodes = *harness.sweep.iter().max().unwrap_or(&8).min(&16);
    let m = batched_lockset_metrics(batch_nodes);
    println!(
        "\nbatched lock sets at {batch_nodes} nodes: {} logical messages in {} frames \
         (coalesce ratio {:.2}), {} wire bytes = {:.1} bytes/grant",
        m.total_messages(),
        m.total_frames(),
        m.coalesce_ratio(),
        m.wire_bytes(),
        m.bytes_per_grant(),
    );
    assert!(
        m.total_frames() < m.total_messages(),
        "coalescing must beat one-frame-per-message: {} frames vs {} messages",
        m.total_frames(),
        m.total_messages()
    );
    if let Some(p) = save_batching_json("fig5_batching", batch_nodes, &m) {
        println!("json: {}", p.display());
    }
}
