//! Deterministic fault injection for the runtime's lock-free protocols,
//! in the spirit of tikv's `fail-rs`.
//!
//! The four protocols that make the runtime allocation-free — the sharded
//! injector's swap-drain, the pools' reclaim stack, the group lease/leave
//! handshake and the dependency tracker's CLOSED-swap — are exactly the
//! code whose rare interleavings stress tests only hope to hit. A
//! *failpoint* is a named hook compiled into those paths that CI can arm
//! with an action (panic, delay, yield) to force the interleaving
//! deterministically.
//!
//! ## Cost model
//!
//! Failpoints are **compile-time gated** behind the `failpoints` cargo
//! feature. With the feature off (the default, and every benchmarked
//! configuration) the [`bots_failpoint!`] macro expands to nothing: zero
//! tokens, zero branches, zero atomics on the hot paths. With the feature
//! on, every hit takes a global mutex — fault-injection builds trade speed
//! for determinism by design.
//!
//! ## Activation
//!
//! Sites are armed programmatically ([`cfg`]) or through the environment:
//!
//! ```text
//! BOTS_FAILPOINTS="injector_pop=yield;steal=3*delay(1);task_invoke=1*panic(boom)"
//! ```
//!
//! Each clause is `site=action` with an optional `N*` prefix bounding how
//! many hits fire the action (after which the site goes silent). Actions:
//!
//! * `panic` / `panic(msg)` — panic at the site. Only safe at sites that
//!   execute under a `catch_unwind` (the runtime arms `task_invoke` this
//!   way in CI); panicking inside a protocol's critical window would kill
//!   the worker thread mid-handshake.
//! * `delay(ms)` — sleep, widening a race window.
//! * `yield` — `std::thread::yield_now()`, perturbing the schedule cheaply.
//! * `off` — keep counting hits, fire nothing.
//!
//! Every `fire` is counted whether or not an action is armed, so a test
//! can assert that a workload actually drove a given site
//! ([`hits`] ≥ 1) without changing the workload's behaviour.
//!
//! ## Schedule control
//!
//! Beyond armed actions, a process-global *schedule hook*
//! ([`set_schedule_hook`]) sees every fire after the armed action has run
//! and the registry lock is dropped. The model-checking harness
//! (`crates/modelcheck`) installs one to turn each site into a yield
//! point owned by a deterministic virtual scheduler: the hook parks the
//! calling (virtual-worker) thread until the explorer grants it the next
//! step, which makes whole interleavings of the real protocol code
//! enumerable and replayable.

/// Names a failpoint site. Expands to a call into this module when the
/// crate is built with `--features failpoints`, and to nothing at all
/// otherwise.
///
/// ```ignore
/// crate::bots_failpoint!("injector_pop");
/// ```
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! bots_failpoint {
    ($name:expr) => {
        $crate::failpoint::fire($name)
    };
}

/// Names a failpoint site. Expands to a call into this module when the
/// crate is built with `--features failpoints`, and to nothing at all
/// otherwise.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! bots_failpoint {
    ($name:expr) => {};
}

#[cfg(feature = "failpoints")]
pub use imp::{cfg, fire, hits, prewarm, remove, set_schedule_hook, teardown, ScheduleHook, SITES};

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Duration;

    /// A schedule-control callback: called with the site name on **every**
    /// fire, after the registry lock is dropped and any armed action has
    /// run. The model-checking harness (`crates/modelcheck`) installs one
    /// to turn every failpoint site into a yield point its virtual
    /// scheduler owns; the hook decides per-thread (via its own
    /// thread-locals) whether the calling thread is a virtual worker that
    /// must park or a bystander that passes straight through.
    pub type ScheduleHook = Arc<dyn Fn(&str) + Send + Sync>;

    static SCHED_HOOK: OnceLock<Mutex<Option<ScheduleHook>>> = OnceLock::new();

    fn sched_hook_slot() -> &'static Mutex<Option<ScheduleHook>> {
        SCHED_HOOK.get_or_init(|| Mutex::new(None))
    }

    /// Installs (or with `None`, removes) the global schedule hook. The
    /// hook must be cheap and must never fire a failpoint itself.
    pub fn set_schedule_hook(hook: Option<ScheduleHook>) {
        *sched_hook_slot().lock().unwrap_or_else(|e| e.into_inner()) = hook;
    }

    /// Every site name compiled into the runtime (the `bots_failpoint!`
    /// call sites). Kept next to the registry so [`prewarm`] and the CI
    /// coverage test agree on the full set.
    pub const SITES: [&str; 20] = [
        "injector_push",
        "injector_push_cas",
        "injector_pop",
        "injector_pop_swap",
        "injector_pop_republish",
        "steal",
        "task_invoke",
        "slab_free_remote",
        "slab_reclaim_cas",
        "slab_drain",
        "group_leave",
        "group_claim",
        "dep_retire",
        "dep_edge_cas",
        "replay_freeze",
        "replay_diverge",
        "loop_claim",
        "loop_drain",
        "cont_suspend",
        "cont_resume",
    ];

    /// What an armed site does when hit.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Action {
        /// Count the hit, do nothing.
        Off,
        /// Panic with the given message (or a default).
        Panic(Option<String>),
        /// Sleep for the given number of milliseconds.
        Delay(u64),
        /// `std::thread::yield_now()`.
        Yield,
    }

    struct Site {
        action: Action,
        /// Hits left that still fire the action; `None` = unbounded.
        remaining: Option<u64>,
        hits: u64,
    }

    /// The effect `fire` must perform after dropping the registry lock
    /// (panicking or sleeping while holding it would poison or serialise
    /// every other site).
    enum Fired {
        Panic(Option<String>),
        Delay(u64),
        Yield,
    }

    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();

    fn registry() -> &'static Mutex<HashMap<String, Site>> {
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(spec) = std::env::var("BOTS_FAILPOINTS") {
                for clause in spec.split(';') {
                    let clause = clause.trim();
                    if clause.is_empty() {
                        continue;
                    }
                    let Some((name, action)) = clause.split_once('=') else {
                        eprintln!("BOTS_FAILPOINTS: ignoring '{clause}': missing '='");
                        continue;
                    };
                    match parse_action(action.trim()) {
                        Ok((action, remaining)) => {
                            map.insert(
                                name.trim().to_string(),
                                Site {
                                    action,
                                    remaining,
                                    hits: 0,
                                },
                            );
                        }
                        Err(e) => eprintln!("BOTS_FAILPOINTS: ignoring '{clause}': {e}"),
                    }
                }
            }
            Mutex::new(map)
        })
    }

    /// Parses one action spec (`[N*]action`), returning the action and the
    /// optional hit bound.
    fn parse_action(spec: &str) -> Result<(Action, Option<u64>), String> {
        let (count, spec) = match spec.split_once('*') {
            Some((n, rest)) => {
                let n = n
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad count '{n}'"))?;
                (Some(n), rest.trim())
            }
            None => (None, spec),
        };
        let action = if spec == "off" {
            Action::Off
        } else if spec == "panic" {
            Action::Panic(None)
        } else if spec == "yield" {
            Action::Yield
        } else if let Some(msg) = spec
            .strip_prefix("panic(")
            .and_then(|s| s.strip_suffix(')'))
        {
            Action::Panic(Some(msg.to_string()))
        } else if let Some(ms) = spec
            .strip_prefix("delay(")
            .and_then(|s| s.strip_suffix(')'))
        {
            Action::Delay(
                ms.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad delay '{ms}'"))?,
            )
        } else {
            return Err(format!("unknown action '{spec}'"));
        };
        Ok((action, count))
    }

    /// Hits a failpoint site: counts the hit, then performs the armed
    /// action (if any, and if its hit bound has not drained). Called by the
    /// [`bots_failpoint!`](crate::bots_failpoint) macro — not meant to be
    /// invoked directly outside tests.
    pub fn fire(name: &str) {
        let fired = {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            // Not `entry()`: that would allocate the owned key on every
            // hit, and sites fire on the runtime's zero-allocation warm
            // paths. The double lookup keeps warm fires allocation-free.
            #[allow(clippy::map_entry)]
            if !reg.contains_key(name) {
                reg.insert(
                    name.to_string(),
                    Site {
                        action: Action::Off,
                        remaining: None,
                        hits: 0,
                    },
                );
            }
            let site = reg.get_mut(name).expect("present: just inserted");
            site.hits += 1;
            if site.remaining == Some(0) {
                None
            } else {
                if let Some(n) = site.remaining.as_mut() {
                    *n -= 1;
                }
                match &site.action {
                    Action::Off => None,
                    Action::Panic(msg) => Some(Fired::Panic(msg.clone())),
                    Action::Delay(ms) => Some(Fired::Delay(*ms)),
                    Action::Yield => Some(Fired::Yield),
                }
            }
        };
        match fired {
            None => {}
            Some(Fired::Panic(msg)) => {
                let msg = msg.unwrap_or_else(|| format!("failpoint '{name}' panicked"));
                panic!("{msg}");
            }
            Some(Fired::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fired::Yield) => std::thread::yield_now(),
        }
        // Schedule control runs last so the virtual scheduler observes the
        // site exactly at its linearization boundary, with no registry lock
        // held (the hook may park the calling thread indefinitely).
        let hook = sched_hook_slot()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(hook) = hook {
            hook(name);
        }
    }

    /// Arms `name` with `spec` (same grammar as one `BOTS_FAILPOINTS`
    /// clause's action, e.g. `"yield"`, `"2*delay(5)"`, `"1*panic(boom)"`).
    /// Resets the site's hit bound; the hit counter keeps accumulating.
    pub fn cfg(name: &str, spec: &str) -> Result<(), String> {
        let (action, remaining) = parse_action(spec)?;
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let site = reg.entry(name.to_string()).or_insert(Site {
            action: Action::Off,
            remaining: None,
            hits: 0,
        });
        site.action = action;
        site.remaining = remaining;
        Ok(())
    }

    /// Disarms `name` (hit counting continues).
    pub fn remove(name: &str) {
        let _ = cfg(name, "off");
    }

    /// Inserts every known site into the registry (disarmed; already-armed
    /// entries — e.g. from `BOTS_FAILPOINTS` — are untouched). Called at
    /// team construction so the one-time key insertions of first fires
    /// never land on a measured warm path or inside a live-bytes leak
    /// window that was baselined after a runtime warm-up.
    pub fn prewarm() {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        for name in SITES {
            #[allow(clippy::map_entry)]
            if !reg.contains_key(name) {
                reg.insert(
                    name.to_string(),
                    Site {
                        action: Action::Off,
                        remaining: None,
                        hits: 0,
                    },
                );
            }
        }
    }

    /// Disarms every site and zeroes all hit counters.
    pub fn teardown() {
        registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// How many times `name` has been hit since the last [`teardown`].
    pub fn hits(name: &str) -> u64 {
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map_or(0, |s| s.hits)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parse_grammar() {
            assert_eq!(parse_action("off").unwrap(), (Action::Off, None));
            assert_eq!(parse_action("panic").unwrap(), (Action::Panic(None), None));
            assert_eq!(
                parse_action("panic(boom)").unwrap(),
                (Action::Panic(Some("boom".into())), None)
            );
            assert_eq!(parse_action("delay(7)").unwrap(), (Action::Delay(7), None));
            assert_eq!(parse_action("yield").unwrap(), (Action::Yield, None));
            assert_eq!(
                parse_action("3*delay(1)").unwrap(),
                (Action::Delay(1), Some(3))
            );
            assert_eq!(
                parse_action("1*panic").unwrap(),
                (Action::Panic(None), Some(1))
            );
            assert!(parse_action("explode").is_err());
            assert!(parse_action("x*yield").is_err());
            assert!(parse_action("delay(soon)").is_err());
        }
    }
}
