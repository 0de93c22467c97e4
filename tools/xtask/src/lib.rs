//! Workspace task runner library: the shared lexer plus the two static
//! analysis passes (`unsafe-audit`, `lint`). The binary in `main.rs` is a
//! thin dispatcher; the logic lives here so the integration tests can
//! drive the lint engine against fixture files without spawning a
//! process.

pub mod audit;
pub mod lexer;
pub mod lint;

use std::path::{Path, PathBuf};

/// The workspace root, two levels up from `tools/xtask`.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("tools/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Recursively collects `.rs` files under `dir`, skipping build output,
/// VCS metadata, and the lint test fixtures (fixtures violate the rules
/// on purpose; only the lint tests should ever parse them).
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
