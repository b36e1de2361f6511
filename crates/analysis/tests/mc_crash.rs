//! The one exhaustive exploration that crashes a DAG(T) site: the gate
//! matrix sets no crash budget, so nothing else reaches `World`'s
//! `crash(s)`/`restart(s)` actions exhaustively.

use repl_analysis::mc::{check_scenario, Config, Scenario, Topology};
use repl_protocol::ProtocolId;

/// `replmc --protocol dagt --topology chain --sites 3 --crash --stats`:
/// clean, and its stats pinned the way `gate_matrix_stats_are_pinned`
/// pins the gate's. A source's machine bumps its own epoch at a crash;
/// a machine that bumped at a site with parents too is caught here
/// (MC002, a 7-step witness). The restart feeds the `Timer` that
/// re-arms the site's timers at its clock.
#[test]
fn dag_t_crash_exploration_is_clean_and_pinned() {
    let mut s = Scenario::new(ProtocolId::DagT, Topology::Chain, 3, 2);
    s.crash_budget = 1;
    let r = check_scenario(&s, &Config::default()).expect("explore");
    assert!(r.findings.is_empty() && !r.stats.truncated, "{}", s.label());
    let st = r.stats;
    assert_eq!(
        (st.states, st.transitions, st.quiescent_states, st.max_depth_seen),
        (68060, 68059, 36, 18)
    );
}
