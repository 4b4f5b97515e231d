//! Workspace discovery: which crates exist, which files they own, and
//! what role each file plays.
//!
//! Discovery is driven by the root `Cargo.toml`'s `members` list (with
//! `dir/*` globs expanded), plus the repository-root `examples/`
//! directory, whose files are `[[example]]` targets of `mlb-ntier`.
//! Nothing here parses full TOML — the two facts needed (member paths
//! and package names) are extracted with line-level scanning, keeping
//! the crate dependency-free.

use std::fs;
use std::path::{Path, PathBuf};

/// What part of a crate a file belongs to. Rules scope themselves by
/// role: simulation invariants bind library code, not harness/demo code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/**` — library (or binary) code compiled into the crate.
    Lib,
    /// `tests/**` — integration tests.
    Test,
    /// `benches/**` — benchmark harnesses.
    Bench,
    /// `examples/**` (including the repo-root `examples/` dir).
    Example,
}

/// One source file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Owning package name (e.g. `mlb-ntier`).
    pub crate_name: String,
    /// Role within the crate.
    pub role: FileRole,
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
}

/// A discovered workspace member.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from the member's `Cargo.toml`.
    pub name: String,
    /// Member directory relative to the workspace root.
    pub rel_dir: String,
}

/// The discovered workspace: members plus every lintable source file.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Member crates, in member-list order.
    pub crates: Vec<CrateInfo>,
    /// All source files, sorted by relative path for stable reports.
    pub files: Vec<SourceFile>,
}

/// An error encountered while discovering the workspace.
#[derive(Debug)]
pub struct DiscoverError(pub String);

impl std::fmt::Display for DiscoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workspace discovery failed: {}", self.0)
    }
}

impl std::error::Error for DiscoverError {}

impl Workspace {
    /// Discovers the workspace rooted at `root`.
    pub fn discover(root: &Path) -> Result<Workspace, DiscoverError> {
        let manifest = fs::read_to_string(root.join("Cargo.toml"))
            .map_err(|e| DiscoverError(format!("reading {}/Cargo.toml: {e}", root.display())))?;
        let member_dirs = expand_members(root, &parse_members(&manifest))?;
        let mut crates = Vec::new();
        let mut files = Vec::new();
        for rel_dir in member_dirs {
            let dir = root.join(&rel_dir);
            let crate_manifest = fs::read_to_string(dir.join("Cargo.toml"))
                .map_err(|e| DiscoverError(format!("reading {rel_dir}/Cargo.toml: {e}")))?;
            let name = parse_package_name(&crate_manifest).ok_or_else(|| {
                DiscoverError(format!("{rel_dir}/Cargo.toml has no package name"))
            })?;
            for (sub, role) in [
                ("src", FileRole::Lib),
                ("tests", FileRole::Test),
                ("benches", FileRole::Bench),
                ("examples", FileRole::Example),
            ] {
                collect_rs(root, &dir.join(sub), &name, role, &mut files)?;
            }
            crates.push(CrateInfo { name, rel_dir });
        }
        // Repo-root examples/ — [[example]] targets of mlb-ntier.
        collect_rs(
            root,
            &root.join("examples"),
            "mlb-ntier",
            FileRole::Example,
            &mut files,
        )?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            crates,
            files,
        })
    }

    /// Looks up a file by workspace-relative path.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

/// Extracts the `members = [...]` entries from the root manifest.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let Some(start) = manifest.find("members") else {
        return members;
    };
    let Some(open) = manifest[start..].find('[') else {
        return members;
    };
    let after = &manifest[start + open + 1..];
    let Some(close) = after.find(']') else {
        return members;
    };
    for entry in after[..close].split(',') {
        let e = entry.trim().trim_matches('"').trim();
        if !e.is_empty() {
            members.push(e.to_owned());
        }
    }
    members
}

/// Expands `dir/*` globs against the filesystem; plain entries pass
/// through. Only directories containing a `Cargo.toml` count.
fn expand_members(root: &Path, members: &[String]) -> Result<Vec<String>, DiscoverError> {
    let mut out = Vec::new();
    for m in members {
        if let Some(prefix) = m.strip_suffix("/*") {
            let dir = root.join(prefix);
            let entries = fs::read_dir(&dir)
                .map_err(|e| DiscoverError(format!("listing {}: {e}", dir.display())))?;
            let mut found: Vec<String> = entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .filter_map(|e| e.file_name().into_string().ok())
                .map(|name| format!("{prefix}/{name}"))
                .collect();
            found.sort();
            out.extend(found);
        } else if root.join(m).join("Cargo.toml").is_file() {
            out.push(m.clone());
        }
    }
    Ok(out)
}

/// Extracts `name = "..."` from a `[package]` section.
fn parse_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_owned());
                }
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir` (no-op when absent).
fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    role: FileRole,
    out: &mut Vec<SourceFile>,
) -> Result<(), DiscoverError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries =
        fs::read_dir(dir).map_err(|e| DiscoverError(format!("listing {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(root, &p, crate_name, role, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .map_err(|_| DiscoverError(format!("{} escapes the root", p.display())))?;
            let rel_path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                crate_name: crate_name.to_owned(),
                role,
                rel_path,
                abs_path: p,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_parse() {
        let m = parse_members("[workspace]\nmembers = [\"crates/*\", \"shims/*\", \"tests\"]\n");
        assert_eq!(m, vec!["crates/*", "shims/*", "tests"]);
    }

    #[test]
    fn package_name_parses() {
        let name = parse_package_name(
            "[package]\nname = \"mlb-simlint\"\nversion = \"0.1.0\"\n[dependencies]\nname = \"decoy\"\n",
        );
        assert_eq!(name.as_deref(), Some("mlb-simlint"));
    }

    #[test]
    fn discovers_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let ws = Workspace::discover(&root).unwrap();
        assert!(ws.crates.iter().any(|c| c.name == "mlb-simkernel"));
        assert!(ws.crates.iter().any(|c| c.name == "mlb-simlint"));
        assert!(ws.file("crates/ntier/src/system.rs").is_some());
        // Fixture corpus must never be workspace-scanned: it exists to
        // trigger rules. (The integration test *file* fixtures.rs is
        // fine — only the fixtures/ directory is off-limits.)
        assert!(ws.files.iter().all(|f| !f.rel_path.contains("/fixtures/")));
        // Root examples are attributed to mlb-ntier as Example role.
        let q = ws.file("examples/quickstart.rs").unwrap();
        assert_eq!(q.crate_name, "mlb-ntier");
        assert_eq!(q.role, FileRole::Example);
    }
}
