//! S004 fixture: taxonomy-conforming metric names, one per kind.

fn record(m: &mut Metrics) {
    m.inc("net.packets_sent");
    m.gauge_set("net.queue.depth", 3);
    m.observe("punch.latency", 40);
    m.metric_inc_labeled("nat.drop", "quota");
}
