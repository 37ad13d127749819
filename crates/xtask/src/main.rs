//! Repo automation tasks (`cargo xtask <task>`, via the `.cargo/config.toml`
//! alias). Two tasks, both CI-required:
//!
//! * **`lint`** — two audits of the runtime sources:
//!   - the atomic-ordering audit of the five lock-free protocol files
//!     (`injector.rs`, `freelist.rs`, `group.rs`, `deps.rs`, `cont.rs`):
//!     every `Ordering::Relaxed` in non-test code must carry a
//!     `// relaxed-ok:` justification (same line or within the six
//!     preceding lines) and every `compare_exchange` a `// transition:`
//!     comment stating the protocol-state transition the CAS performs.
//!     Unjustified orderings fail the build: a Relaxed that nobody can
//!     justify is either a latent reordering bug or a missing piece of
//!     the protocol's documentation, and both block merging;
//!   - the thread-local audit of every `crates/runtime/src` file: a
//!     `thread_local!` static may only be accessed inside an
//!     `#[inline(never)]` function. Task bodies run on fibers that can
//!     suspend on one worker and resume on another; an inlined access lets
//!     the compiler reuse the thread-local address computed before the
//!     switch, i.e. the previous thread's slot.
//!
//! * **`tla-check`** — sanity for the TLA+ specs under `specs/tla/`: each
//!   spec must exist, its `MODULE` header must match the filename, the
//!   module must be terminated, the W1/W2/W6 invariants must be defined
//!   in the spec and referenced by its `.cfg`. When a `tla2sany` binary is
//!   on `PATH` the specs are additionally run through the real TLA+
//!   syntax checker. This keeps the specs from silently rotting in a tree
//!   where TLC is usually not installed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The five protocol files the ordering lint audits, relative to the
/// workspace root.
const PROTOCOL_FILES: [&str; 5] = [
    "crates/runtime/src/injector.rs",
    "crates/runtime/src/freelist.rs",
    "crates/runtime/src/group.rs",
    "crates/runtime/src/deps.rs",
    "crates/runtime/src/cont.rs",
];

/// The TLA+ specs and the invariants each must define; every spec needs a
/// sibling `.cfg` referencing the same invariants.
const TLA_SPECS: [(&str, &[&str]); 2] = [
    (
        "specs/tla/Injector.tla",
        &["W1NoLostTasks", "W2NoDoubleExecution", "W6BoundedMirror"],
    ),
    (
        "specs/tla/DepsRelease.tla",
        &["W1NoLostTasks", "W2NoDoubleExecution", "W6BoundedPending"],
    ),
];

/// The directory whose sources the thread-local audit covers.
const RUNTIME_SRC: &str = "crates/runtime/src";

/// How many lines above an atomic op a justification comment may sit.
const LOOKBACK: usize = 6;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let task = args.next().unwrap_or_default();
    let root = workspace_root();
    match task.as_str() {
        "lint" => run_lint(&root),
        "tla-check" => run_tla_check(&root),
        other => {
            eprintln!("unknown task '{other}'; available: lint, tla-check");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels above this crate's manifest dir, unless
/// we are invoked from somewhere else inside the tree (then walk up to the
/// directory holding the workspace `Cargo.toml` with a `crates/` sibling).
fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("crates").is_dir() {
                return root.to_path_buf();
            }
        }
    }
    let mut cur = std::env::current_dir().expect("cwd");
    loop {
        if cur.join("Cargo.toml").is_file() && cur.join("crates").is_dir() {
            return cur;
        }
        if !cur.pop() {
            panic!("could not locate the workspace root");
        }
    }
}

fn run_lint(root: &Path) -> ExitCode {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let mut violations = Vec::new();
    for rel in PROTOCOL_FILES {
        match read(rel) {
            Ok(text) => violations.extend(
                lint_file(&text)
                    .into_iter()
                    .map(|v| format!("{rel}:{}: {}", v.line, v.what)),
            ),
            Err(e) => violations.push(e),
        }
    }
    let runtime_files = match runtime_sources(root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("lint: cannot list {RUNTIME_SRC}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for rel in &runtime_files {
        match read(rel) {
            Ok(text) => violations.extend(
                lint_thread_locals(&text)
                    .into_iter()
                    .map(|v| format!("{rel}:{}: {}", v.line, v.what)),
            ),
            Err(e) => violations.push(e),
        }
    }
    if violations.is_empty() {
        println!(
            "lint: {} protocol files clean (every Relaxed justified, every CAS documented); \
             {} runtime files access thread-locals only from #[inline(never)] fns",
            PROTOCOL_FILES.len(),
            runtime_files.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("lint: {v}");
        }
        eprintln!(
            "\nlint: {} violation(s). Every `Ordering::Relaxed` in a protocol file needs a \
             `// relaxed-ok: <why>` comment and every `compare_exchange` a \
             `// transition: <state change>` comment, on the same line or within the {} \
             lines above. Every `thread_local!` access in {RUNTIME_SRC} must sit in an \
             `#[inline(never)]` fn.",
            violations.len(),
            LOOKBACK
        );
        ExitCode::FAILURE
    }
}

/// The runtime's `.rs` sources, relative to the root, sorted.
fn runtime_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join(RUNTIME_SRC))? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.ends_with(".rs") {
            files.push(format!("{RUNTIME_SRC}/{name}"));
        }
    }
    files.sort();
    Ok(files)
}

/// Audits one file's thread-local accesses (non-test region, as for the
/// ordering lint): every use of a static declared in a `thread_local!`
/// block must sit inside a function whose attributes include
/// `#[inline(never)]`. The enclosing function is the nearest `fn` line
/// above the use with smaller indentation.
fn lint_thread_locals(text: &str) -> Vec<Violation> {
    let lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .collect();
    let names = thread_local_names(&lines);
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = split_comment(line).0;
        if !names.iter().any(|n| uses_ident(code, n, '.')) {
            continue;
        }
        let indent = indentation(line);
        let fn_line = (0..idx)
            .rev()
            .find(|&i| indentation(lines[i]) < indent && declares_fn(split_comment(lines[i]).0));
        let never_inlined = fn_line.is_some_and(|f| {
            lines[..f]
                .iter()
                .rev()
                .map(|l| l.trim_start())
                .take_while(|l| l.starts_with("#[") || l.starts_with("//"))
                .any(|l| l.starts_with("#[inline(never)]"))
        });
        if !never_inlined {
            out.push(Violation {
                line: idx + 1,
                what: "thread-local accessed outside an #[inline(never)] fn",
            });
        }
    }
    out
}

/// Names of the statics declared inside `thread_local!` blocks.
fn thread_local_names(lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    let mut depth: Option<i32> = None;
    for line in lines {
        let code = split_comment(line).0;
        if depth.is_none() && code.contains("thread_local!") {
            depth = Some(0);
        }
        if let Some(d) = depth.as_mut() {
            if let Some(rest) = code.trim_start().strip_prefix("static ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                names.push(name);
            }
            *d += code.matches('{').count() as i32 - code.matches('}').count() as i32;
            if *d <= 0 && code.contains('}') {
                depth = None;
            }
        }
    }
    names
}

/// Does `code` contain `name` as a whole identifier followed by `next`?
fn uses_ident(code: &str, name: &str, next: char) -> bool {
    code.match_indices(name).any(|(i, _)| {
        let before = code[..i].chars().next_back();
        let after = code[i + name.len()..].chars().next();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_') && after == Some(next)
    })
}

/// Does this line of code declare a function?
fn declares_fn(code: &str) -> bool {
    code.split_whitespace()
        .collect::<Vec<_>>()
        .windows(2)
        .any(|w| {
            w[0] == "fn"
                && w[1]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
}

fn indentation(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// One lint finding: the 1-based line and what is missing.
#[derive(Debug, PartialEq, Eq)]
struct Violation {
    line: usize,
    what: &'static str,
}

/// Audits one protocol file's text. Only the non-test region is linted:
/// everything before the first `#[cfg(test)]` line (the repo convention
/// puts the test module last). Returns findings in line order.
fn lint_file(text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        // Strip the line's own comment so a mention of `Ordering::Relaxed`
        // inside prose does not trigger the lint; remember the comment to
        // honour same-line justifications.
        let (code, comment) = split_comment(line);
        if code.contains("Ordering::Relaxed") && !has_marker(&lines, idx, comment, "relaxed-ok:") {
            out.push(Violation {
                line: idx + 1,
                what: "Ordering::Relaxed without a `relaxed-ok:` justification",
            });
        }
        if code.contains("compare_exchange") && !has_marker(&lines, idx, comment, "transition:") {
            out.push(Violation {
                line: idx + 1,
                what: "compare_exchange without a `transition:` protocol comment",
            });
        }
    }
    out
}

/// Splits a source line at its `//` comment (ignoring `//` inside string
/// literals is unnecessary here: the protocol files carry no `//` inside
/// strings). Returns (code, comment-including-slashes).
fn split_comment(line: &str) -> (&str, &str) {
    match line.find("//") {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

/// Is `marker` present on this line's comment or in a comment within the
/// `LOOKBACK` preceding lines?
fn has_marker(lines: &[&str], idx: usize, own_comment: &str, marker: &str) -> bool {
    if own_comment.contains(marker) {
        return true;
    }
    lines[idx.saturating_sub(LOOKBACK)..idx]
        .iter()
        .any(|l| split_comment(l).1.contains(marker))
}

fn run_tla_check(root: &Path) -> ExitCode {
    let mut failures = Vec::new();
    for (rel, invariants) in TLA_SPECS {
        let path = root.join(rel);
        match std::fs::read_to_string(&path) {
            Ok(text) => failures.extend(
                check_tla_spec(rel, &text, invariants)
                    .into_iter()
                    .map(|m| format!("{rel}: {m}")),
            ),
            Err(e) => {
                failures.push(format!("{rel}: missing or unreadable ({e})"));
                continue;
            }
        }
        let cfg_rel = rel.replace(".tla", ".cfg");
        let cfg_path = root.join(&cfg_rel);
        match std::fs::read_to_string(&cfg_path) {
            Ok(cfg) => {
                for inv in invariants {
                    if !cfg.contains(inv) {
                        failures.push(format!("{cfg_rel}: does not reference invariant {inv}"));
                    }
                }
                if !cfg.contains("INVARIANT") {
                    failures.push(format!("{cfg_rel}: no INVARIANT clause"));
                }
            }
            Err(e) => failures.push(format!("{cfg_rel}: missing or unreadable ({e})")),
        }
    }
    // The real syntax checker, when this environment has one.
    if failures.is_empty() {
        if let Some(sany) = find_in_path("tla2sany") {
            for (rel, _) in TLA_SPECS {
                let out = std::process::Command::new(&sany)
                    .arg(root.join(rel))
                    .output();
                match out {
                    Ok(o) if o.status.success() => {}
                    Ok(o) => failures.push(format!(
                        "{rel}: tla2sany rejected the spec:\n{}",
                        String::from_utf8_lossy(&o.stdout)
                    )),
                    Err(e) => failures.push(format!("{rel}: tla2sany failed to run: {e}")),
                }
            }
        } else {
            println!("tla-check: tla2sany not on PATH, structural checks only");
        }
    }
    if failures.is_empty() {
        println!(
            "tla-check: {} specs present and well-formed",
            TLA_SPECS.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("tla-check: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Structural checks on one spec's text.
fn check_tla_spec(rel: &str, text: &str, invariants: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let module = Path::new(rel)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    let header_ok = text
        .lines()
        .next()
        .map(|l| l.contains("MODULE") && l.contains(module) && l.contains("----"))
        .unwrap_or(false);
    if !header_ok {
        out.push(format!(
            "first line is not a `---- MODULE {module} ----` header"
        ));
    }
    if !text.lines().rev().any(|l| l.trim().starts_with("====")) {
        out.push("module is not terminated with a `====` footer".to_string());
    }
    for inv in invariants {
        if !text.contains(&format!("{inv} ==")) {
            out.push(format!("invariant {inv} is not defined (`{inv} ==`)"));
        }
    }
    if !text.contains("Init ==") || !text.contains("Next ==") {
        out.push("spec must define Init and Next".to_string());
    }
    out
}

/// Looks `bin` up on PATH.
fn find_in_path(bin: &str) -> Option<PathBuf> {
    let path = std::env::var_os("PATH")?;
    std::env::split_paths(&path)
        .map(|d| d.join(bin))
        .find(|p| p.is_file())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn justified_relaxed_passes() {
        let src = "\
// relaxed-ok: counter is advisory
let x = a.load(Ordering::Relaxed);
";
        assert!(lint_file(src).is_empty());
    }

    #[test]
    fn same_line_justification_passes() {
        let src = "let x = a.load(Ordering::Relaxed); // relaxed-ok: advisory\n";
        assert!(lint_file(src).is_empty());
    }

    #[test]
    fn unjustified_relaxed_fails() {
        let src = "let x = a.load(Ordering::Relaxed);\n";
        let v = lint_file(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert!(v[0].what.contains("relaxed-ok"));
    }

    #[test]
    fn justification_outside_lookback_fails() {
        let mut src = String::from("// relaxed-ok: too far away\n");
        for _ in 0..LOOKBACK {
            src.push_str("let y = 1;\n");
        }
        src.push_str("let x = a.load(Ordering::Relaxed);\n");
        assert_eq!(lint_file(&src).len(), 1);
    }

    #[test]
    fn cas_needs_transition_comment() {
        let bad = "a.compare_exchange(x, y, Ordering::AcqRel, Ordering::Acquire);\n";
        let v = lint_file(bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("transition"));
        let good = "\
// transition: head: x -> y (publish)
a.compare_exchange(x, y, Ordering::AcqRel, Ordering::Acquire);
";
        assert!(lint_file(good).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_trigger() {
        let src = "// Ordering::Relaxed would be wrong here, so we use Acquire.\n";
        assert!(lint_file(src).is_empty());
    }

    #[test]
    fn test_module_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() { a.load(Ordering::Relaxed); }
}
";
        assert!(lint_file(src).is_empty());
    }

    const TL_DECL: &str = "\
thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(0) };
}
";

    #[test]
    fn inlined_thread_local_accessor_fails() {
        let src = format!(
            "{TL_DECL}
#[inline]
fn slot() -> usize {{
    SLOT.with(|s| s.get())
}}
"
        );
        let v = lint_thread_locals(&src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 7);
        assert!(v[0].what.contains("inline(never)"));
        // No attribute at all is just as inlinable.
        let bare = format!("{TL_DECL}fn slot() -> usize {{\n    SLOT.with(|s| s.get())\n}}\n");
        assert_eq!(lint_thread_locals(&bare).len(), 1);
    }

    #[test]
    fn never_inlined_thread_local_accessor_passes() {
        let src = format!(
            "{TL_DECL}
/// Reads the slot.
#[inline(never)]
pub(crate) fn slot() -> usize {{
    SLOT.with(|s| {{
        s.get()
    }})
}}
"
        );
        assert!(lint_thread_locals(&src).is_empty());
    }

    #[test]
    fn thread_local_names_are_whole_identifiers() {
        let src = format!("{TL_DECL}fn f() {{\n    MY_SLOT.with(|s| s.get());\n}}\n");
        assert!(lint_thread_locals(&src).is_empty());
    }

    #[test]
    fn the_shipped_runtime_accesses_thread_locals_out_of_line() {
        let root = workspace_root();
        let files = runtime_sources(&root).expect("list runtime sources");
        assert!(files.iter().any(|f| f.ends_with("pool.rs")));
        for rel in files {
            let text = std::fs::read_to_string(root.join(&rel)).unwrap();
            let v = lint_thread_locals(&text);
            assert!(
                v.is_empty(),
                "{rel}: {:?}",
                v.iter().map(|x| x.line).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn the_shipped_protocol_files_are_clean() {
        // The real tree must pass the lint as shipped: run it in-process
        // over the same files the CI step audits.
        let root = workspace_root();
        for rel in PROTOCOL_FILES {
            let text = std::fs::read_to_string(root.join(rel))
                .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
            let v = lint_file(&text);
            assert!(
                v.is_empty(),
                "{rel} has unjustified orderings: {:?}",
                v.iter().map(|x| (x.line, x.what)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn the_shipped_tla_specs_are_well_formed() {
        let root = workspace_root();
        for (rel, invariants) in TLA_SPECS {
            let text = std::fs::read_to_string(root.join(rel))
                .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
            let problems = check_tla_spec(rel, &text, invariants);
            assert!(problems.is_empty(), "{rel}: {problems:?}");
            let cfg = std::fs::read_to_string(root.join(rel.replace(".tla", ".cfg")))
                .unwrap_or_else(|e| panic!("cannot read cfg for {rel}: {e}"));
            for inv in invariants {
                assert!(cfg.contains(inv), "{rel} cfg must reference {inv}");
            }
        }
    }
}
