//! Snapshot persistence for shredded documents.
//!
//! Stands in for the paper's PostgreSQL storage: a shredded corpus can be
//! saved once and reloaded by benchmarks without re-parsing/re-shredding
//! the XML. The format is a single JSON object holding the three tables
//! (`labels`, `elements`, `values`); derived lookup structures are
//! rebuilt on load. For the production paged binary format, see the
//! `xks-persist` crate — JSON snapshots remain the human-inspectable
//! dev/test option.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::json::{self, JsonError, Value};
use crate::tables::{ElementRow, ShreddedDoc, ValueRow, WordSource};

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file error.
    Io(io::Error),
    /// Malformed snapshot contents (JSON syntax).
    Format(JsonError),
    /// Structurally valid JSON that is not a snapshot (missing or
    /// mistyped field).
    Schema(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Format(e) => write!(f, "snapshot format error: {e}"),
            SnapshotError::Schema(what) => write!(f, "snapshot schema error: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Format(e)
    }
}

fn schema(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Schema(what.into())
}

/// Writes `doc` to `path` as JSON.
pub fn save(doc: &ShreddedDoc, path: &Path) -> Result<(), SnapshotError> {
    fs::write(path, to_json(doc))?;
    Ok(())
}

/// Loads a shredded document from `path`, rebuilding derived indexes.
pub fn load(path: &Path) -> Result<ShreddedDoc, SnapshotError> {
    let text = fs::read_to_string(path)?;
    let mut doc = from_json(&json::parse(&text)?)?;
    doc.rebuild_indexes();
    Ok(doc)
}

/// Serializes a shredded document to its JSON snapshot text.
#[must_use]
pub fn to_json(doc: &ShreddedDoc) -> String {
    let labels = Value::Arr(doc.labels.iter().map(|l| Value::Str(l.clone())).collect());
    let elements = Value::Arr(doc.elements.iter().map(element_to_json).collect());
    let values = Value::Arr(doc.values.iter().map(value_row_to_json).collect());
    let mut root = BTreeMap::new();
    root.insert("labels".to_owned(), labels);
    root.insert("elements".to_owned(), elements);
    root.insert("values".to_owned(), values);
    json::to_string(&Value::Obj(root))
}

/// Deserializes a snapshot JSON value (derived indexes are *not*
/// rebuilt; [`load`] does that).
pub fn from_json(root: &Value) -> Result<ShreddedDoc, SnapshotError> {
    let labels = root
        .get("labels")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("missing \"labels\" array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| schema("label must be a string"))
        })
        .collect::<Result<Vec<String>, _>>()?;
    let elements = root
        .get("elements")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("missing \"elements\" array"))?
        .iter()
        .map(element_from_json)
        .collect::<Result<Vec<ElementRow>, _>>()?;
    let values = root
        .get("values")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("missing \"values\" array"))?
        .iter()
        .map(value_row_from_json)
        .collect::<Result<Vec<ValueRow>, _>>()?;
    Ok(ShreddedDoc::from_tables(labels, elements, values))
}

fn element_to_json(row: &ElementRow) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("label".to_owned(), Value::Num(u64::from(row.label)));
    obj.insert("dewey".to_owned(), Value::Str(row.dewey.clone()));
    obj.insert("level".to_owned(), Value::Num(u64::from(row.level)));
    obj.insert(
        "label_path".to_owned(),
        Value::Arr(
            row.label_path
                .iter()
                .map(|&l| Value::Num(u64::from(l)))
                .collect(),
        ),
    );
    obj.insert(
        "content_feature".to_owned(),
        match &row.content_feature {
            None => Value::Null,
            Some((min, max)) => Value::Arr(vec![Value::Str(min.clone()), Value::Str(max.clone())]),
        },
    );
    Value::Obj(obj)
}

fn element_from_json(v: &Value) -> Result<ElementRow, SnapshotError> {
    let label = get_u32(v, "label")?;
    let dewey = get_str(v, "dewey")?;
    let level = get_u32(v, "level")?;
    let label_path = v
        .get("label_path")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("element row missing \"label_path\""))?
        .iter()
        .map(|n| {
            n.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| schema("label_path entry must be a u32"))
        })
        .collect::<Result<Vec<u32>, _>>()?;
    let content_feature = match v.get("content_feature") {
        None | Some(Value::Null) => None,
        Some(Value::Arr(pair)) if pair.len() == 2 => {
            let min = pair[0]
                .as_str()
                .ok_or_else(|| schema("content_feature min must be a string"))?;
            let max = pair[1]
                .as_str()
                .ok_or_else(|| schema("content_feature max must be a string"))?;
            Some((min.to_owned(), max.to_owned()))
        }
        Some(_) => return Err(schema("content_feature must be null or [min, max]")),
    };
    Ok(ElementRow {
        label,
        dewey,
        level,
        label_path,
        content_feature,
    })
}

fn value_row_to_json(row: &ValueRow) -> Value {
    let mut obj = BTreeMap::new();
    obj.insert("label".to_owned(), Value::Num(u64::from(row.label)));
    obj.insert("dewey".to_owned(), Value::Str(row.dewey.clone()));
    obj.insert(
        "source".to_owned(),
        match &row.source {
            WordSource::Label => Value::Str("label".to_owned()),
            WordSource::Text => Value::Str("text".to_owned()),
            WordSource::Attribute(name) => {
                let mut attr = BTreeMap::new();
                attr.insert("attribute".to_owned(), Value::Str(name.clone()));
                Value::Obj(attr)
            }
        },
    );
    obj.insert("keyword".to_owned(), Value::Str(row.keyword.clone()));
    Value::Obj(obj)
}

fn value_row_from_json(v: &Value) -> Result<ValueRow, SnapshotError> {
    let source = match v
        .get("source")
        .ok_or_else(|| schema("value row missing \"source\""))?
    {
        Value::Str(s) if s == "label" => WordSource::Label,
        Value::Str(s) if s == "text" => WordSource::Text,
        obj @ Value::Obj(_) => WordSource::Attribute(
            obj.get("attribute")
                .and_then(Value::as_str)
                .ok_or_else(|| schema("attribute source must carry a name"))?
                .to_owned(),
        ),
        _ => return Err(schema("unknown word source")),
    };
    Ok(ValueRow {
        label: get_u32(v, "label")?,
        dewey: get_str(v, "dewey")?,
        source,
        keyword: get_str(v, "keyword")?,
    })
}

fn get_str(v: &Value, key: &str) -> Result<String, SnapshotError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| schema(format!("missing string field \"{key}\"")))
}

fn get_u32(v: &Value, key: &str) -> Result<u32, SnapshotError> {
    v.get(key)
        .and_then(Value::as_u64)
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| schema(format!("missing u32 field \"{key}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::shred;
    use crate::tempdir::TempDir;
    use xks_xmltree::fixtures::{publications, team};

    #[test]
    fn save_load_round_trip() {
        let doc = shred(&publications());
        let dir = TempDir::new("store-test");
        let path = dir.join("pubs.json");
        save(&doc, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(doc.labels, loaded.labels);
        assert_eq!(doc.elements, loaded.elements);
        assert_eq!(doc.values, loaded.values);
        // Derived lookups survive the round trip.
        assert_eq!(
            doc.keyword_deweys("keyword"),
            loaded.keyword_deweys("keyword")
        );
        assert!(loaded.element(&"0.2.0".parse().unwrap()).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = TempDir::new("store-test");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Format(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_wrong_schema() {
        let dir = TempDir::new("store-test");
        let path = dir.join("schema.json");
        std::fs::write(&path, r#"{"labels": [1, 2]}"#).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::Schema(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let dir = TempDir::new("store-test");
        let path = dir.join("definitely-missing.json");
        assert!(matches!(load(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn team_round_trip_preserves_stats() {
        let doc = shred(&team());
        let dir = TempDir::new("store-test");
        let path = dir.join("team.json");
        save(&doc, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.keyword_node_count("position"), 3);
        assert_eq!(loaded.keyword_frequency("forward"), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attribute_sources_round_trip() {
        use xks_xmltree::TreeBuilder;
        let mut b = TreeBuilder::new("article");
        b.open_with_attrs("ref", &[("venue", "sigmod")]);
        b.text("skyline");
        b.close();
        let doc = shred(&b.build());
        let back = from_json(&crate::json::parse(&to_json(&doc)).unwrap()).unwrap();
        assert_eq!(doc.values, back.values);
        assert!(back
            .values
            .iter()
            .any(|r| matches!(&r.source, WordSource::Attribute(a) if a == "venue")));
    }
}
