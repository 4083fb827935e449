//! The workspace passes its own determinism, unsafe-audit and concurrency
//! lint: no finding survives suppression (every rule is an error).

use autotune_lint::{find_workspace_root, scan_workspace};
use std::path::Path;

#[test]
fn workspace_lint_reports_no_errors() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report = scan_workspace(&root).expect("workspace sources readable");
    assert!(
        report.files_scanned > 100,
        "scan visited {} files; wrong root {}?",
        report.files_scanned,
        root.display()
    );
    assert!(
        !report.has_errors(),
        "autotune-lint found errors:\n{}",
        report.human()
    );
}
