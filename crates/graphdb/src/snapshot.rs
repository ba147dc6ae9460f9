//! Graph snapshots: JSON serialization to disk and back.
//!
//! The one on-disk format is the **versioned envelope**
//! ([`save_snapshot`] / [`load_snapshot`]): `{"version": v, "graph": {…}}`,
//! the serde form of a [`GraphSnapshot`]. It keeps the store-assigned
//! publish version, so a server restarted from a checkpoint resumes the
//! version sequence instead of resetting to 1, and the graph's write
//! epoch, so a reload cannot rewind the counter the query cache keys on.
//!
//! [`to_json`] / [`from_json`] are the in-memory serde of a bare
//! [`Graph`] — the `graph` field of the envelope.
//!
//! A file on disk is untrusted input: loading rejects any payload whose
//! cross-references dangle (relationship ids, endpoints, symbols, label
//! members, index entries) with [`SnapshotError::Format`], so a corrupt
//! checkpoint fails at load time instead of panicking a later query.
//! Transient lookup tables are rebuilt on load.

use crate::graph::Graph;
use crate::store::GraphSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Errors raised by snapshot save/load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The snapshot file was not valid.
    Format(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Format(e) => write!(f, "snapshot format error: {e}"),
        }
    }
}
impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl SnapshotError {
    /// Prefixes the error message with the file it came from, so a
    /// corrupt snapshot among many is identifiable from the error alone.
    fn at(self, path: &Path) -> Self {
        match self {
            SnapshotError::Io(e) => {
                SnapshotError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
            }
            SnapshotError::Format(msg) => {
                SnapshotError::Format(format!("{}: {msg}", path.display()))
            }
        }
    }
}

/// The sibling temp path used by atomic writes: `<name>.tmp` in the same
/// directory (same filesystem, so the rename is atomic).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "snapshot".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`: write a sibling temp file,
/// fsync it, rename over the target. A crash at any point leaves either
/// the old file or the new one — never a torn mix — because the rename
/// is the only step that touches the destination name.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = tmp_path(path);
    let result = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if let Err(e) = result {
        // Don't leave a stale temp file behind a failed save.
        fs::remove_file(&tmp).ok();
        return Err(SnapshotError::Io(e).at(path));
    }
    // Make the rename itself durable on filesystems that need a
    // directory sync (best-effort: read-only open can fail on exotic
    // mounts without invalidating the write).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Serializes the graph to a JSON string.
pub fn to_json(graph: &Graph) -> Result<String, SnapshotError> {
    serde_json::to_string(graph).map_err(|e| SnapshotError::Format(e.to_string()))
}

/// Deserializes and validates a graph from a JSON string.
pub fn from_json(json: &str) -> Result<Graph, SnapshotError> {
    serde_json::from_str(json).map_err(|e| SnapshotError::Format(e.to_string()))
}

/// Reads the file as text, classifying invalid UTF-8 as *content*
/// corruption ([`SnapshotError::Format`]) rather than an I/O failure —
/// a bit-flipped snapshot is a bad snapshot, not a broken disk.
fn read_text(path: &Path) -> Result<String, SnapshotError> {
    let bytes = fs::read(path).map_err(|e| SnapshotError::Io(e).at(path))?;
    String::from_utf8(bytes)
        .map_err(|e| SnapshotError::Format(format!("not valid utf-8: {e}")).at(path))
}

/// The versioned envelope: the graph plus the publish version the store
/// assigned to the snapshot it was taken from.
#[derive(Serialize, Deserialize)]
struct VersionedEnvelope {
    version: u64,
    graph: Graph,
}

/// Serializes a [`GraphSnapshot`] (graph + publish version) to JSON.
pub fn snapshot_to_json(snapshot: &GraphSnapshot) -> Result<String, SnapshotError> {
    let env = VersionedEnvelope {
        version: snapshot.version(),
        graph: snapshot.graph().clone(),
    };
    serde_json::to_string(&env).map_err(|e| SnapshotError::Format(e.to_string()))
}

/// Deserializes and validates a [`GraphSnapshot`] from the versioned
/// envelope format.
pub fn snapshot_from_json(json: &str) -> Result<GraphSnapshot, SnapshotError> {
    let env: VersionedEnvelope =
        serde_json::from_str(json).map_err(|e| SnapshotError::Format(e.to_string()))?;
    Ok(GraphSnapshot::new(env.graph, env.version))
}

/// Writes a versioned snapshot file atomically (temp file + fsync +
/// rename) — the checkpoint write path, where tearing the previous
/// checkpoint would destroy the only recovery base.
pub fn save_snapshot(
    snapshot: &GraphSnapshot,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    write_atomic(path.as_ref(), snapshot_to_json(snapshot)?.as_bytes())
}

/// Reads a versioned snapshot file. Errors name the offending path;
/// corrupt payloads are [`SnapshotError::Format`], never a panic.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<GraphSnapshot, SnapshotError> {
    let path = path.as_ref();
    snapshot_from_json(&read_text(path)?).map_err(|e| e.at(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;
    use crate::props;
    use crate::value::Value;

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], props!("asn" => 2497i64));
        let b = g.add_node(["Country"], props!("country_code" => "JP"));
        g.add_rel(a, "COUNTRY", b, props!("reference_org" => "NRO"))
            .unwrap();
        g.create_index("AS", "asn");

        let back = from_json(&to_json(&g).unwrap()).unwrap();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.rel_count(), 1);
        // Interner lookups work after rebuild.
        assert_eq!(back.nodes_with_label("AS").count(), 1);
        assert_eq!(
            back.neighbors(a, Direction::Outgoing, Some(&["COUNTRY"]))
                .len(),
            1
        );
        // Index survives.
        assert_eq!(
            back.index_lookup("AS", "asn", &Value::Int(2497)),
            Some(vec![a])
        );
    }

    /// Regression (PR 5): a save → mutate → load round-trip must not
    /// rewind the write epoch, or an epoch-keyed cache could serve bytes
    /// computed against the pre-save graph to readers of the reloaded
    /// one.
    #[test]
    fn epoch_survives_save_mutate_load() {
        let mut g = Graph::new();
        let a = g.add_node(["AS"], props!("asn" => 1i64));
        g.add_node(["AS"], props!("asn" => 2i64));
        let saved_epoch = g.epoch();
        assert!(saved_epoch > 0);
        let json = to_json(&g).unwrap();

        // Mutations after the save advance the live graph's epoch...
        g.set_node_prop(a, "asn", 99i64).unwrap();
        assert!(g.epoch() > saved_epoch);

        // ...and the reload resumes from the saved epoch, not from 0.
        let back = from_json(&json).unwrap();
        assert_eq!(back.epoch(), saved_epoch, "reload rewound the epoch");

        // Further writes on the reloaded graph keep advancing it.
        let mut back = back;
        back.set_node_prop(a, "asn", 100i64).unwrap();
        assert!(back.epoch() > saved_epoch);
    }

    /// The versioned envelope preserves both the publish version and the
    /// epoch across a round-trip.
    #[test]
    fn versioned_envelope_roundtrip() {
        let mut g = Graph::new();
        g.add_node(["AS"], props!("asn" => 2497i64));
        g.create_index("AS", "asn");
        let epoch = g.epoch();
        let snap = crate::store::GraphSnapshot::new(g, 17);

        let back = snapshot_from_json(&snapshot_to_json(&snap).unwrap()).unwrap();
        assert_eq!(back.version(), 17);
        assert_eq!(back.epoch(), epoch);
        assert_eq!(back.node_count(), 1);
        // Interner + index survive through the envelope too.
        assert_eq!(
            back.index_lookup("AS", "asn", &Value::Int(2497))
                .map(|ids| ids.len()),
            Some(1)
        );
    }

    /// A reloaded snapshot republished into a store can never regress
    /// the epoch a cache already observed: the store raises it.
    #[test]
    fn reloaded_snapshot_republish_keeps_epoch_monotonic() {
        let mut g = Graph::new();
        g.add_node(["AS"], props!("asn" => 1i64));
        let json = to_json(&g).unwrap();

        let store = crate::store::GraphStore::new(g);
        // The live graph moves on past the saved file.
        let mut batch = crate::delta::DeltaBatch::new();
        batch.add_node(["AS"], props!("asn" => 2i64));
        for _ in 0..5 {
            store.ingest(&batch).unwrap();
        }
        let live_epoch = store.load().epoch();

        // Restoring the old file must not take the epoch backwards.
        let reloaded = from_json(&json).unwrap();
        assert!(reloaded.epoch() < live_epoch);
        store.publish(reloaded);
        assert!(store.load().epoch() > live_epoch);
    }

    /// A paged snapshot reloads byte-identically: save → load → save is a
    /// fixed point.
    #[test]
    fn paged_snapshot_resave_is_byte_identical() {
        let mut g = Graph::new();
        for i in 0..600i64 {
            g.add_node(["AS"], props!("asn" => i, "name" => format!("AS{i}")));
        }
        g.create_index("AS", "asn");
        g.remove_node(crate::graph::NodeId(3)).unwrap();
        let json = to_json(&g).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(to_json(&back).unwrap(), json);
    }

    #[test]
    fn bad_json_is_a_format_error() {
        match from_json("{not json") {
            Err(SnapshotError::Format(_)) => {}
            other => panic!("expected format error, got {other:?}"),
        }
    }

    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iyp_graphdb_snapshot_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn two_node_snapshot() -> crate::store::GraphSnapshot {
        let mut g = Graph::new();
        g.add_node(["AS"], props!("asn" => 2497i64, "name" => "IIJ"));
        g.add_node(["Country"], props!("country_code" => "JP"));
        g.create_index("AS", "asn");
        crate::store::GraphSnapshot::new(g, 3)
    }

    /// Regression (PR 10 satellite): a failure mid-save must leave the
    /// previously saved file intact — the save writes a sibling temp
    /// file and only renames on success. The failure is simulated by
    /// planting a *directory* at the temp path, which makes the temp
    /// file creation (the first write step) fail.
    #[test]
    fn failed_save_leaves_old_snapshot_intact() {
        let dir = fresh_dir("atomic");
        let path = dir.join("checkpoint.json");
        let snap = two_node_snapshot();
        save_snapshot(&snap, &path).unwrap();
        let original = std::fs::read_to_string(&path).unwrap();

        std::fs::create_dir(dir.join("checkpoint.json.tmp")).unwrap();
        let mut g2 = snap.graph().clone();
        g2.add_node(["AS"], props!("asn" => 1i64));
        let bigger = crate::store::GraphSnapshot::new(g2, 4);
        let err = save_snapshot(&bigger, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(
            err.to_string().contains("checkpoint.json"),
            "error does not name the target: {err}"
        );

        // The old file is byte-for-byte untouched and still loads.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), original);
        assert_eq!(load_snapshot(&path).unwrap().version(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A successful save cleans up after itself and fully replaces the
    /// old content (no stale `.tmp` left behind, new bytes visible).
    #[test]
    fn atomic_save_replaces_and_leaves_no_temp() {
        let dir = fresh_dir("atomic_ok");
        let path = dir.join("checkpoint.json");
        save_snapshot(&two_node_snapshot(), &path).unwrap();
        let mut g2 = Graph::new();
        g2.add_node(["AS"], props!("asn" => 9i64));
        save_snapshot(&crate::store::GraphSnapshot::new(g2, 7), &path).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().version(), 7);
        assert!(
            !dir.join("checkpoint.json.tmp").exists(),
            "temp file left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite hardening: every strict prefix of a snapshot file (a
    /// byte-chopped write, pre-atomicity) must come back as a `Format`
    /// error naming the path — never a panic, never a partial graph.
    #[test]
    fn truncated_snapshot_files_are_format_errors_with_path() {
        let dir = fresh_dir("truncated");
        let path = dir.join("checkpoint.json");
        let snap = two_node_snapshot();
        save_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let chopped = dir.join("chopped.json");
        // Every strict prefix leaves the top-level JSON object unclosed.
        let step = (full.len() / 60).max(1);
        for cut in (0..full.len()).step_by(step) {
            std::fs::write(&chopped, &full[..cut]).unwrap();
            match load_snapshot(&chopped) {
                Err(SnapshotError::Format(msg)) => {
                    assert!(
                        msg.contains("chopped.json"),
                        "error at cut {cut} does not name the path: {msg}"
                    );
                }
                Ok(_) => panic!("truncation at {cut} bytes loaded successfully"),
                Err(other) => panic!("truncation at {cut} gave non-format error: {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite hardening: single-bit flips anywhere in the payload
    /// must either still load (the flip landed in a string literal) or
    /// fail with `Format` — never panic, and never an `Io` error dressed
    /// up as success.
    #[test]
    fn bit_flipped_snapshot_files_never_panic() {
        let dir = fresh_dir("bitflip");
        let path = dir.join("checkpoint.json");
        save_snapshot(&two_node_snapshot(), &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let flipped = dir.join("flipped.json");
        let step = (full.len() / 200).max(1);
        let mut format_errors = 0;
        for pos in (0..full.len()).step_by(step) {
            for bit in [0, 3, 7] {
                let mut bytes = full.clone();
                bytes[pos] ^= 1 << bit;
                std::fs::write(&flipped, &bytes).unwrap();
                match load_snapshot(&flipped) {
                    Ok(_) => {}
                    Err(SnapshotError::Format(msg)) => {
                        format_errors += 1;
                        assert!(
                            msg.contains("flipped.json"),
                            "flip at {pos}/{bit} does not name the path: {msg}"
                        );
                    }
                    Err(other) => panic!("flip at {pos}/{bit} gave non-format error: {other}"),
                }
            }
        }
        assert!(format_errors > 0, "no flip produced a format error");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A structurally valid JSON value that is not a snapshot envelope is
    /// a `Format` error too.
    #[test]
    fn wrong_shape_is_a_format_error_with_path() {
        let dir = fresh_dir("shape");
        let path = dir.join("weird.json");
        std::fs::write(&path, "[1, 2, 3]").unwrap();
        match load_snapshot(&path) {
            Err(SnapshotError::Format(msg)) => assert!(msg.contains("weird.json")),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Missing files surface as `Io` errors that name the path.
    #[test]
    fn missing_file_io_error_names_path() {
        let err = load_snapshot("/nonexistent/chatiyp/checkpoint.json").unwrap_err();
        match &err {
            SnapshotError::Io(e) => {
                assert!(e.to_string().contains("checkpoint.json"), "{e}");
            }
            other => panic!("expected io error, got {other:?}"),
        }
    }

    /// Writes a checkpoint of a 1-node `AS` graph with `edits` applied to
    /// its graph JSON, then loads it through [`load_snapshot`].
    fn load_edited_one_node(
        name: &str,
        edits: &[(&str, &str)],
    ) -> Result<GraphSnapshot, SnapshotError> {
        let mut g = Graph::new();
        g.add_node(["AS"], props!("asn" => 1i64));
        let graph_json = edits.iter().fold(to_json(&g).unwrap(), |json, (from, to)| {
            replace_once(json, from, to)
        });
        let dir = fresh_dir(name);
        let path = dir.join("checkpoint.json");
        std::fs::write(&path, format!(r#"{{"version":1,"graph":{graph_json}}}"#)).unwrap();
        let result = load_snapshot(&path);
        std::fs::remove_dir_all(&dir).ok();
        result
    }

    /// A one-field edit: `from` must occur exactly once in `json`.
    fn replace_once(json: String, from: &str, to: &str) -> String {
        assert_eq!(json.matches(from).count(), 1, "`{from}` in {json}");
        json.replace(from, to)
    }

    #[track_caller]
    fn assert_format_error(result: Result<GraphSnapshot, SnapshotError>, needle: &str) {
        match result {
            Err(SnapshotError::Format(msg)) => {
                assert!(msg.contains("checkpoint.json"), "no path in: {msg}");
                assert!(msg.contains(needle), "`{needle}` not in: {msg}");
            }
            Ok(_) => panic!("a corrupt checkpoint loaded"),
            Err(other) => panic!("expected a format error, got {other}"),
        }
    }

    /// Regression: a label member id far past the node table used to
    /// grow the label's shard table toward it and abort the process on
    /// a failed allocation inside the load.
    #[test]
    fn label_member_past_the_node_table_is_a_format_error() {
        let edit = (
            r#""label_members":[[0]]"#,
            r#""label_members":[[4000000000000]]"#,
        );
        let result = load_edited_one_node("member", &[edit]);
        assert_format_error(result, "node #4000000000000");
    }

    /// Regression: an adjacency entry naming no relationship used to load
    /// and then panic the first expansion from the node.
    #[test]
    fn adjacency_naming_no_relationship_is_a_format_error() {
        let result = load_edited_one_node("adjacency", &[(r#""out":[]"#, r#""out":[7]"#)]);
        assert_format_error(result, "relationship r7");
    }

    /// Regression: a node label symbol outside the label table used to
    /// load and then panic `labels(a)`.
    #[test]
    fn label_symbol_outside_the_interner_is_a_format_error() {
        let result = load_edited_one_node("label_sym", &[(r#""labels":[0]"#, r#""labels":[5]"#)]);
        assert_format_error(result, "label symbol 5");
    }

    /// The pre-paged layout (`nodes` as one flat slot array) is not a
    /// checkpoint format.
    #[test]
    fn flat_node_table_is_a_format_error() {
        let edits = [
            (r#""nodes":{"page_size":16,"pages":[["#, r#""nodes":["#),
            (r#"]]},"rels""#, r#"],"rels""#),
        ];
        assert_format_error(load_edited_one_node("flat", &edits), "paged map");
    }

    /// A graph without its write epoch is not a checkpoint: loading it at
    /// epoch 0 could rewind the counter the query cache keys on.
    #[test]
    fn epochless_graph_is_a_format_error() {
        let result = load_edited_one_node("epochless", &[(r#","epoch":1}"#, "}")]);
        assert_format_error(result, "missing field `epoch`");
    }

    /// Every other kind of dangling or stale cross-reference, one edit each, on
    /// the fixture graph (AS -[:COUNTRY]-> Country, `AS.asn` indexed).
    #[test]
    fn each_dangling_reference_kind_is_a_format_error() {
        let cases: [(&str, &str, &str); 9] = [
            (r#""src":0"#, r#""src":9"#, "endpoint #9"),
            (r#""ty":0"#, r#""ty":4"#, "type symbol 4"),
            (r#""inc":[0]"#, r#""inc":[]"#, "missing from its endpoints"),
            (
                r#"[{"Int":2497},[0]]"#,
                r#"[{"Int":2497},[2]]"#,
                "names node #2",
            ),
            (r#"[[0,"asn"]"#, r#"[[8,"asn"]"#, "label symbol 8"),
            (r#"[[0,"asn"]"#, r#"[[1,"asn"]"#, "names node #0 under"),
            (
                r#"[{"Int":1},[]],[{"Int":2497},[0]]"#,
                r#"[{"Int":1},[0]],[{"Int":2497},[]]"#,
                "names node #0 under Int(1)",
            ),
            (
                r#"[{"Int":2497},[0]]"#,
                r#"[{"Int":2497},[]]"#,
                "index on `asn` omits",
            ),
            (
                r#""label_members":[[0],[1]]"#,
                r#""label_members":[[0],[]]"#,
                "omits",
            ),
        ];
        let fixture = std::fs::read_to_string(fixture_path()).unwrap();
        let dir = fresh_dir("dangling");
        let path = dir.join("checkpoint.json");
        for (from, to, needle) in cases {
            std::fs::write(&path, replace_once(fixture.clone(), from, to)).unwrap();
            assert_format_error(load_snapshot(&path), needle);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fixture_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_small.json")
    }

    /// A checkpoint committed from the store as it was before load-time
    /// validation existed (an AS with a COUNTRY edge, a deleted node, an
    /// `AS.asn` index that kept an emptied key) still loads, with the
    /// same version, epoch, adjacency and index lookups, and re-saves
    /// byte-identically.
    #[test]
    fn committed_checkpoint_fixture_loads_unchanged() {
        let path = fixture_path();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.version(), 3);
        assert_eq!(snap.epoch(), 6);
        assert_eq!((snap.node_count(), snap.rel_count()), (2, 1));
        let (iij, jp) = (crate::graph::NodeId(0), crate::graph::NodeId(1));
        assert!(snap.node(crate::graph::NodeId(2)).is_none());
        assert_eq!(
            snap.index_lookup("AS", "asn", &Value::Int(2497)),
            Some(vec![iij])
        );
        assert_eq!(snap.index_lookup("AS", "asn", &Value::Int(1)), Some(vec![]));
        assert_eq!(
            snap.neighbors(iij, Direction::Outgoing, Some(&["COUNTRY"])),
            vec![(crate::graph::RelId(0), jp)]
        );
        assert_eq!(
            snap.nodes_with_label("Country").collect::<Vec<_>>(),
            vec![jp]
        );
        assert_eq!(
            snapshot_to_json(&snap).unwrap(),
            std::fs::read_to_string(&path).unwrap()
        );
    }
}
