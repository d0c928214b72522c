//! CSV export for every experiment report, so results can be plotted or
//! diffed outside the terminal. Records are quoted per RFC 4180 by
//! telemetry's [`csv_record`] — no serialization dependency needed for
//! flat numeric tables.

use crate::broadcast_exp::BroadcastRow;
use crate::distributed_exp::DistributedRow;
use crate::fault_exp::FaultSweep;
use crate::netsim_exp::SimRow;
use crate::routing_exp::RoutingReport;
use hb_core::metrics::TopologyMetrics;
use hb_netsim::forwarding::ForwardingReport;
use hb_telemetry::sink::csv_record;

/// Figure-style metrics rows.
pub fn metrics_csv(rows: &[TopologyMetrics]) -> String {
    let mut out = String::from(
        "topology,nodes,edges,regular,degree_min,degree_max,diameter_analytic,\
         diameter_measured,fault_tolerance_analytic,fault_tolerance_measured,bipartite\n",
    );
    for r in rows {
        out.push_str(&csv_record([
            r.name.clone(),
            r.nodes.to_string(),
            r.edges.to_string(),
            r.regular.map_or(String::new(), |d| d.to_string()),
            r.degree_min.to_string(),
            r.degree_max.to_string(),
            r.diameter_analytic.to_string(),
            r.diameter_measured.to_string(),
            r.fault_tolerance_analytic.to_string(),
            r.fault_tolerance_measured
                .map_or(String::new(), |f| f.to_string()),
            r.bipartite.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Distance histogram of a routing campaign, one row per distance.
pub fn routing_csv(r: &RoutingReport) -> String {
    let mut out = String::from("topology,distance,count\n");
    for (d, &count) in r.histogram.iter().enumerate() {
        out.push_str(&csv_record([
            r.name.clone(),
            d.to_string(),
            count.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Fault sweeps, one row per (topology, fault count).
pub fn fault_csv(sweeps: &[FaultSweep]) -> String {
    let mut out = String::from("topology,kappa,faults,trials,connected,pair_reachability\n");
    for sw in sweeps {
        for lvl in &sw.per_level {
            out.push_str(&csv_record([
                sw.name.clone(),
                sw.kappa.to_string(),
                lvl.faults.to_string(),
                lvl.trials.to_string(),
                lvl.connected.to_string(),
                format!("{:.6}", lvl.pair_reachability),
            ]));
            out.push('\n');
        }
    }
    out
}

/// Simulator rows.
pub fn sim_csv(rows: &[SimRow]) -> String {
    let mut out = String::from(
        "topology,pattern,rate,delivered,offered,avg_latency,avg_hops,peak_queue,cycles,\
         p50,p95,p99,max_latency\n",
    );
    for r in rows {
        let q = |f: fn(&hb_telemetry::Quantiles) -> u64| {
            r.latency
                .as_ref()
                .map_or(String::new(), |q| f(q).to_string())
        };
        out.push_str(&csv_record([
            r.name.clone(),
            r.pattern.clone(),
            format!("{:.4}", r.rate),
            r.delivered.to_string(),
            r.offered.to_string(),
            format!("{:.4}", r.avg_latency),
            format!("{:.4}", r.avg_hops),
            r.peak_queue.to_string(),
            r.cycles.to_string(),
            q(|q| q.p50),
            q(|q| q.p95),
            q(|q| q.p99),
            q(|q| q.max),
        ]));
        out.push('\n');
    }
    out
}

/// Broadcast rows.
pub fn broadcast_csv(rows: &[BroadcastRow]) -> String {
    let mut out = String::from("topology,nodes,rounds,lower_bound,messages\n");
    for r in rows {
        out.push_str(&csv_record([
            r.name.clone(),
            r.nodes.to_string(),
            r.rounds.to_string(),
            r.lower_bound.to_string(),
            r.messages.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Forwarding-index rows.
pub fn forwarding_csv(rows: &[ForwardingReport]) -> String {
    let mut out = String::from("topology,channels,max_load,mean_load,cv,pairs\n");
    for r in rows {
        out.push_str(&csv_record([
            r.name.clone(),
            r.channels.to_string(),
            r.max.to_string(),
            format!("{:.4}", r.mean),
            format!("{:.6}", r.cv),
            r.pairs.to_string(),
        ]));
        out.push('\n');
    }
    out
}

/// Distributed-protocol rows.
pub fn distributed_csv(rows: &[DistributedRow]) -> String {
    let mut out = String::from(
        "topology,nodes,diameter,election_rounds,election_msgs,election_peak_round,\
         tree_rounds,tree_msgs,gossip_rounds,gossip_msgs,gossip_peak_round\n",
    );
    for r in rows {
        out.push_str(&csv_record([
            r.name.clone(),
            r.nodes.to_string(),
            r.diameter.to_string(),
            r.election.0.to_string(),
            r.election.1.to_string(),
            r.election_peak_round.to_string(),
            r.tree.0.to_string(),
            r.tree.1.to_string(),
            r.gossip.0.to_string(),
            r.gossip.1.to_string(),
            r.gossip_peak_round.to_string(),
        ]));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::metrics::{hyper_butterfly_metrics, MeasureLevel};

    #[test]
    fn metrics_csv_round_trips_basic_fields() {
        let rows = vec![hyper_butterfly_metrics(1, 3, MeasureLevel::Diameter).unwrap()];
        let csv = metrics_csv(&rows);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("topology,nodes"));
        let data = lines.next().unwrap();
        assert!(data.starts_with("\"HB(1, 3)\",48,120,5"));
    }

    #[test]
    fn routing_csv_has_one_row_per_distance() {
        let r = crate::routing_exp::run(1, 3, 0, 1).unwrap();
        let csv = routing_csv(&r);
        assert_eq!(csv.lines().count(), 1 + r.histogram.len());
    }

    #[test]
    fn sim_csv_carries_latency_quantiles() {
        let row = SimRow {
            name: "HB(1, 3)".into(),
            pattern: "uniform".into(),
            rate: 0.1,
            delivered: 10,
            offered: 10,
            avg_latency: 3.0,
            avg_hops: 2.5,
            peak_queue: 1,
            cycles: 42,
            latency: Some(hb_telemetry::Quantiles {
                p50: 3,
                p95: 5,
                p99: 6,
                max: 7,
            }),
        };
        let csv = sim_csv(&[row]);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().ends_with("p50,p95,p99,max_latency"));
        assert!(lines.next().unwrap().ends_with("3,5,6,7"));
    }

    #[test]
    fn fault_csv_flattens_sweeps() {
        use crate::fault_exp::{sweep, Campaign};
        let hb = hb_core::HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let sw = sweep("HB(1, 3)", &g, hb.connectivity(), Campaign::Random, 2, 4, 1);
        let csv = fault_csv(&[sw]);
        assert_eq!(csv.lines().count(), 1 + 3); // header + f = 0, 1, 2
        assert!(csv.contains("\"HB(1, 3)\",5,0,4,4,"));
    }
}
