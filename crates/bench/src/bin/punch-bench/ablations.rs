//! Ablation studies over the Table 1 survey: what the measured table
//! would look like if NAT behaviours (or NAT Check itself) were
//! different. Quantifies the §6.3 caveats at population scale.
//!
//! Run: `cargo run --release -p punch-bench -- ablations`

use crate::{Flags, Run};
use punch_nat::{Hairpin, NatBehavior};
use punch_natcheck::{check_nat_pair, run_survey, run_survey_mutated};
use rand::Rng;

fn totals(label: &str, r: &punch_natcheck::SurveyResult) -> String {
    format!("  {label:<44} UDP {:>3}/{:<3}  hairpin {:>3}/{:<3}  TCP {:>3}/{:<3}  tcp-hairpin {:>3}/{:<3}\n",
        r.total.udp.0,
        r.total.udp.1,
        r.total.udp_hairpin.0,
        r.total.udp_hairpin.1,
        r.total.tcp.0,
        r.total.tcp.1,
        r.total.tcp_hairpin.0,
        r.total.tcp_hairpin.1)
}

pub fn run(_: &Flags) -> Result<Run, String> {
    let mut out = String::new();
    out += "== Ablations over the Table 1 survey (380 devices each) ==\n\n";

    let base = run_survey(2005, None);
    out += &totals("baseline (calibrated to the paper)", &base);

    // §5.3/§6.3: a world where 25% of NATs mangle payloads. NAT Check
    // transmits addresses in the clear, so its *hairpin* measurements
    // collapse on those devices while hole-punch verdicts survive.
    let mangled = run_survey_mutated(2005, None, |b, rng| {
        if rng.gen_bool(0.25) {
            b.mangle_payloads = true;
        }
    });
    out += &totals("25% of NATs mangle payloads (§5.3)", &mangled);

    // §6.3: every hairpin-capable NAT filters hairpinned traffic as
    // untrusted — NAT Check's one-sided hairpin test then reports almost
    // no hairpin support at all.
    let hairpin_filtered = run_survey_mutated(2005, None, |b, _| {
        b.hairpin_filters = true;
    });
    out += &totals(
        "all NATs filter hairpinned traffic (§6.3)",
        &hairpin_filtered,
    );

    // Hairpin everywhere: the counterfactual the paper hopes for ("it is
    // becoming more common"). Hole-punch columns don't move; hairpin
    // columns saturate.
    let hairpin_all = run_survey_mutated(2005, None, |b, _| {
        b.hairpin_udp = Hairpin::Full;
        b.hairpin_tcp = Hairpin::Full;
        b.hairpin_filters = false;
    });
    out += &totals("all NATs hairpin (counterfactual)", &hairpin_all);

    // §3.6 sanity: per-session vs per-mapping timers make no difference
    // to the (short-lived) survey — they matter for long-lived sessions
    // (see the `keepalive` bin).
    let mapping_timers = run_survey_mutated(2005, None, |b, _| {
        b.per_session_timers = false;
    });
    out += &totals("per-mapping (not per-session) timers", &mapping_timers);

    out += "\n== §6.3 contention blind spot at population scale ==\n";
    out += "   30% of cone NATs break under private-port contention;\n";
    out += "   single-client NAT Check (= Table 1) cannot tell:\n\n";
    let contended = run_survey_mutated(2005, None, |b, rng| {
        if b.supports_udp_hole_punching() && rng.gen_bool(0.30) {
            b.contention_breaks_consistency = true;
        }
    });
    out += &totals("single-client survey, 30% contention-breakers", &contended);
    out += "   (identical UDP column to baseline — the blind spot)\n\n";

    // The paired check sees them. Each device is an independent sim:
    // fan out on the pool.
    let checked = 30usize;
    let hidden = punch_lab::par::run_n(checked, |seed| {
        let behavior = NatBehavior {
            contention_breaks_consistency: seed % 3 == 0, // 10 of 30
            ..NatBehavior::well_behaved()
        };
        check_nat_pair(behavior, 7000 + seed as u64).hidden_contention_failure()
    })
    .into_iter()
    .filter(|&h| h)
    .count();
    out += &format!("   paired check over {checked} devices (10 seeded breakers): {hidden} hidden failures exposed\n");
    Ok(Run::text("ablations.txt", out))
}
