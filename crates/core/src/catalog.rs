//! The meta table (Section IV-D).
//!
//! The paper keeps meta information in MySQL "because the sizes of meta
//! tables would not be too large, and we can benefit from ... the
//! relational database". Here the catalog is a small plain-text file with
//! whole-file rewrite on change — the same properties (tiny, durable,
//! readable without touching the data store) without a second database.
//!
//! Format, one record per table:
//!
//! ```text
//! TABLE <name> KIND common|plugin:<plugin> INDEX <kind> PERIOD <period>
//!       SHARDS <n> REGIONS <n>
//! FIELD <name> <type> [pk] [compress=<codec>]
//! END
//! ```

use crate::error::CoreError;
use crate::Result;
use just_compress::Codec;
use just_curves::TimePeriod;
use just_storage::{Field, FieldType, IndexKind, Schema};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

/// Common vs plugin tables (Section IV-D). Views are not catalogued: they
/// live in memory and die with the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableKind {
    /// A user-defined schema.
    Common,
    /// A preset plugin schema, e.g. `trajectory`.
    Plugin(String),
}

/// One catalogued table.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name (namespaced for multi-user setups).
    pub name: String,
    /// Common or plugin.
    pub kind: TableKind,
    /// The schema.
    pub schema: Schema,
    /// Index kind actually built.
    pub index: IndexKind,
    /// Time period for temporal indexes.
    pub period: TimePeriod,
    /// Salt shards.
    pub shards: u8,
    /// Key-value regions.
    pub regions: usize,
}

/// The persistent catalog.
#[derive(Debug)]
pub struct Catalog {
    path: PathBuf,
    tables: BTreeMap<String, TableDef>,
}

impl Catalog {
    /// Loads (or initialises) the catalog at `path`.
    pub(crate) fn open(path: PathBuf) -> Result<Catalog> {
        let mut catalog = Catalog {
            path,
            tables: BTreeMap::new(),
        };
        if catalog.path.exists() {
            let text = std::fs::read_to_string(&catalog.path)?;
            catalog.tables = parse(&text)?;
        }
        Ok(catalog)
    }

    /// All table definitions, sorted by name.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// Looks a table up.
    pub(crate) fn get(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(name)
    }

    /// Whether a table exists.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Registers a table and persists the catalog.
    pub(crate) fn register(&mut self, def: TableDef) -> Result<()> {
        if self.tables.contains_key(&def.name) {
            return Err(CoreError::Catalog(format!(
                "table '{}' already exists",
                def.name
            )));
        }
        self.tables.insert(def.name.clone(), def);
        self.persist()
    }

    /// Removes a table and persists the catalog.
    pub(crate) fn unregister(&mut self, name: &str) -> Result<TableDef> {
        let def = self
            .tables
            .remove(name)
            .ok_or_else(|| CoreError::Catalog(format!("no such table '{name}'")))?;
        self.persist()?;
        Ok(def)
    }

    fn persist(&self) -> Result<()> {
        let mut out = String::new();
        for def in self.tables.values() {
            let kind = match &def.kind {
                TableKind::Common => "common".to_string(),
                TableKind::Plugin(p) => format!("plugin:{p}"),
            };
            out.push_str(&format!(
                "TABLE {} KIND {} INDEX {} PERIOD {} SHARDS {} REGIONS {}\n",
                def.name,
                kind,
                def.index.name(),
                def.period,
                def.shards,
                def.regions
            ));
            for f in def.schema.fields() {
                out.push_str(&format!("FIELD {} {}", f.name, f.ty.name()));
                if f.primary_key {
                    out.push_str(" pk");
                }
                if f.compress != Codec::None {
                    out.push_str(&format!(" compress={}", f.compress));
                }
                out.push('\n');
            }
            out.push_str("END\n");
        }
        // As the store's manifests: the file is durable before the
        // rename, and the rename before the caller acknowledges.
        let tmp = self.path.with_extension("tmp");
        let file = std::fs::File::create(&tmp)?;
        (&file).write_all(out.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }
}

fn parse(text: &str) -> Result<BTreeMap<String, TableDef>> {
    let bad = |line: &str, why: &str| CoreError::Catalog(format!("catalog: {why}: '{line}'"));
    let mut tables = BTreeMap::new();
    let mut current: Option<(TableDef, Vec<Field>)> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "TABLE" => {
                if current.is_some() {
                    return Err(bad(line, "TABLE inside TABLE"));
                }
                if tokens.len() != 12 {
                    return Err(bad(line, "malformed TABLE line"));
                }
                let name = tokens[1].to_string();
                let kind = match tokens[3] {
                    "common" => TableKind::Common,
                    other => match other.strip_prefix("plugin:") {
                        Some(p) => TableKind::Plugin(p.to_string()),
                        None => return Err(bad(line, "bad KIND")),
                    },
                };
                let index = IndexKind::parse(tokens[5]).ok_or_else(|| bad(line, "bad INDEX"))?;
                let period = TimePeriod::parse(tokens[7]).ok_or_else(|| bad(line, "bad PERIOD"))?;
                let shards: u8 = tokens[9].parse().map_err(|_| bad(line, "bad SHARDS"))?;
                let regions = tokens[11]
                    .parse()
                    .ok()
                    .filter(|n| (1..=256).contains(n))
                    .ok_or_else(|| bad(line, "bad REGIONS"))?;
                current = Some((
                    TableDef {
                        name,
                        kind,
                        schema: Schema::trajectory(), // placeholder, replaced at END
                        index,
                        period,
                        shards,
                        regions,
                    },
                    Vec::new(),
                ));
            }
            "FIELD" => {
                let (_, fields) = current
                    .as_mut()
                    .ok_or_else(|| bad(line, "FIELD outside TABLE"))?;
                if tokens.len() < 3 {
                    return Err(bad(line, "malformed FIELD line"));
                }
                let ty = FieldType::parse(tokens[2]).ok_or_else(|| bad(line, "bad type"))?;
                let mut field = Field::new(tokens[1], ty);
                for opt in &tokens[3..] {
                    if *opt == "pk" {
                        field.primary_key = true;
                    } else if let Some(c) = opt.strip_prefix("compress=") {
                        field.compress = Codec::parse(c).ok_or_else(|| bad(line, "bad codec"))?;
                    } else {
                        return Err(bad(line, "unknown field option"));
                    }
                }
                fields.push(field);
            }
            "END" => {
                let (mut def, fields) = current
                    .take()
                    .ok_or_else(|| bad(line, "END outside TABLE"))?;
                def.schema = Schema::new(fields).map_err(CoreError::Storage)?;
                tables.insert(def.name.clone(), def);
            }
            _ => return Err(bad(line, "unknown directive")),
        }
    }
    if current.is_some() {
        return Err(CoreError::Catalog("catalog: unterminated TABLE".into()));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "just-catalog-{name}-{}-{:?}.meta",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_def(name: &str) -> TableDef {
        TableDef {
            name: name.to_string(),
            kind: TableKind::Common,
            schema: Schema::new(vec![
                Field::new("fid", FieldType::Int).primary(),
                Field::new("time", FieldType::Date),
                Field::new("geom", FieldType::Point),
            ])
            .unwrap(),
            index: IndexKind::Z2t,
            period: TimePeriod::Day,
            shards: 4,
            regions: 4,
        }
    }

    #[test]
    fn register_persist_reload() {
        let path = tmpfile("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let mut c = Catalog::open(path.clone()).unwrap();
            c.register(sample_def("orders")).unwrap();
            let mut traj = sample_def("traj");
            traj.kind = TableKind::Plugin("trajectory".into());
            traj.schema = Schema::trajectory();
            traj.index = IndexKind::Xz2t;
            c.register(traj).unwrap();
        }
        let c = Catalog::open(path.clone()).unwrap();
        assert_eq!(c.tables().count(), 2);
        let orders = c.get("orders").unwrap();
        assert_eq!(orders.index, IndexKind::Z2t);
        assert_eq!(orders.schema.fields().len(), 3);
        assert!(orders.schema.fields()[0].primary_key);
        let traj = c.get("traj").unwrap();
        assert_eq!(traj.kind, TableKind::Plugin("trajectory".into()));
        let gps = traj.schema.index_of("gps_list").unwrap();
        assert_eq!(traj.schema.fields()[gps].compress, Codec::Gzip);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_field_codec_survives_a_reload() {
        let codecs = [Codec::None, Codec::Gzip, Codec::Zip, Codec::Lz];
        let path = tmpfile("codecs");
        std::fs::remove_file(&path).ok();
        {
            let mut c = Catalog::open(path.clone()).unwrap();
            for codec in codecs {
                let mut def = sample_def(&format!("t_{codec}"));
                def.schema = Schema::new(vec![
                    Field::new("fid", FieldType::Int).primary(),
                    Field::new("note", FieldType::Str).compressed(codec),
                ])
                .unwrap();
                c.register(def).unwrap();
            }
        }
        let c = Catalog::open(path.clone()).unwrap();
        for codec in codecs {
            let def = c.get(&format!("t_{codec}")).unwrap();
            assert_eq!(def.schema.fields()[1].compress, codec);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duplicate_registration_rejected() {
        let path = tmpfile("dup");
        std::fs::remove_file(&path).ok();
        let mut c = Catalog::open(path.clone()).unwrap();
        c.register(sample_def("t")).unwrap();
        assert!(c.register(sample_def("t")).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unregister_removes_and_persists() {
        let path = tmpfile("unregister");
        std::fs::remove_file(&path).ok();
        {
            let mut c = Catalog::open(path.clone()).unwrap();
            c.register(sample_def("a")).unwrap();
            c.register(sample_def("b")).unwrap();
            c.unregister("a").unwrap();
            assert!(c.unregister("a").is_err());
        }
        let c = Catalog::open(path.clone()).unwrap();
        assert!(!c.contains("a"));
        assert!(c.contains("b"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_catalog_is_rejected() {
        let path = tmpfile("corrupt");
        std::fs::write(&path, "GARBAGE nonsense\n").unwrap();
        assert!(Catalog::open(path.clone()).is_err());
        std::fs::write(
            &path,
            "TABLE t KIND common INDEX z2 PERIOD day SHARDS 4 REGIONS 4\n",
        )
        .unwrap();
        assert!(Catalog::open(path.clone()).is_err(), "unterminated TABLE");
        std::fs::remove_file(path).ok();
    }
}
