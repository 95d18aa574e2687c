//! Executes parsed Piglet scripts against the engine and the STARK
//! operator layer.

use crate::ast::{BinOp, Expr, PartitionerSpec, Projection, SpatialPredicate, Statement};
use crate::parser::{parse_script, ParseError};
use crate::value::{format_tuple, Tuple, Value};
use stark::{
    cluster::{colocation_patterns, dbscan, ColocationParams, DbscanParams},
    BspPartitioner, GridPartitioner, IndexedSpatialRdd, JoinConfig, STObject, STPredicate,
    SpatialPartitioner, SpatialRdd, SpatialRddExt, Temporal,
};
use stark_engine::{Context, Rdd};
use stark_geo::{DistanceFn, Geometry};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An execution error.
#[derive(Debug)]
pub enum PigletError {
    Parse(ParseError),
    Exec(String),
}

impl fmt::Display for PigletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PigletError::Parse(e) => write!(f, "{e}"),
            PigletError::Exec(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for PigletError {}

impl From<ParseError> for PigletError {
    fn from(e: ParseError) -> Self {
        PigletError::Parse(e)
    }
}

fn exec_err(msg: impl Into<String>) -> PigletError {
    PigletError::Exec(msg.into())
}

/// Observable output of a script run. Serializable so the query service
/// can put it on the wire.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Output {
    /// `DUMP alias;` — the rendered tuples.
    Dump { alias: String, lines: Vec<String> },
    /// `DESCRIBE alias;` — the schema rendering.
    Describe { alias: String, schema: String },
    /// `STORE alias INTO 'path';`
    Stored { alias: String, path: String, records: usize },
    /// `EXPLAIN alias;` — physical form and engine lineage.
    Explained { alias: String, plan: String },
}

/// The physical form of a relation.
enum RelData {
    Plain(Rdd<Tuple>),
    /// Keyed by the STObject in column `field`; carries partitioning.
    Spatial {
        srdd: SpatialRdd<Tuple>,
        field: usize,
    },
    /// Live-indexed form.
    Indexed {
        idx: IndexedSpatialRdd<Tuple>,
        field: usize,
    },
}

/// A named relation: schema + data.
struct Relation {
    schema: Arc<Vec<String>>,
    data: RelData,
}

impl Relation {
    /// A plain tuple view regardless of physical form.
    fn tuples(&self) -> Rdd<Tuple> {
        match &self.data {
            RelData::Plain(rdd) => rdd.clone(),
            RelData::Spatial { srdd, .. } => srdd.rdd().map(|(_, t)| t),
            RelData::Indexed { idx, .. } => idx.trees().map_partitions(|trees| {
                trees
                    .iter()
                    .flat_map(|t| t.entries().into_iter().map(|e| e.item.1.clone()))
                    .collect()
            }),
        }
    }
}

/// Script interpreter holding the alias environment.
pub struct Executor {
    ctx: Context,
    env: HashMap<String, Relation>,
}

impl Executor {
    pub fn new(ctx: Context) -> Self {
        Executor { ctx, env: HashMap::new() }
    }

    /// The engine context used by this executor.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Registers an in-memory relation (used by tests, examples and the
    /// demo front end to inject generated datasets).
    pub fn register(&mut self, alias: &str, schema: Vec<String>, rows: Vec<Tuple>) {
        let rdd = self.ctx.parallelize_default(rows);
        self.register_shared(alias, Arc::new(schema), rdd);
    }

    /// Registers a pre-built dataset without re-parallelizing it. A
    /// long-running service parallelizes each shared dataset once and
    /// hands every per-request executor a cheap handle clone.
    pub fn register_shared(&mut self, alias: &str, schema: Arc<Vec<String>>, rdd: Rdd<Tuple>) {
        self.env.insert(alias.to_string(), Relation { schema, data: RelData::Plain(rdd) });
    }

    /// Parses and runs a script, returning the observable outputs.
    pub fn run_script(&mut self, script: &str) -> Result<Vec<Output>, PigletError> {
        self.run_statements(parse_script(script)?)
    }

    /// Runs pre-parsed statements — the execute stage of a staged
    /// parse → normalize → plan → execute pipeline, where the caller
    /// already holds a (possibly cached and re-instantiated) plan.
    pub fn run_statements(
        &mut self,
        statements: Vec<Statement>,
    ) -> Result<Vec<Output>, PigletError> {
        let mut outputs = Vec::new();
        for stmt in statements {
            if let Some(out) = self.execute(stmt)? {
                outputs.push(out);
            }
        }
        Ok(outputs)
    }

    /// Collects an alias as rendered lines (driver-side helper).
    pub fn collect(&self, alias: &str) -> Result<Vec<Tuple>, PigletError> {
        Ok(self.relation(alias)?.tuples().collect())
    }

    /// The schema of an alias.
    pub fn schema(&self, alias: &str) -> Result<Vec<String>, PigletError> {
        Ok(self.relation(alias)?.schema.as_ref().clone())
    }

    fn relation(&self, alias: &str) -> Result<&Relation, PigletError> {
        self.env.get(alias).ok_or_else(|| exec_err(format!("unknown alias {alias:?}")))
    }

    fn field_index(schema: &[String], name: &str) -> Result<usize, PigletError> {
        schema
            .iter()
            .position(|f| f == name)
            .ok_or_else(|| exec_err(format!("unknown field {name:?} (schema: {schema:?})")))
    }

    fn define(&mut self, alias: String, rel: Relation) {
        self.env.insert(alias, rel);
    }

    fn execute(&mut self, stmt: Statement) -> Result<Option<Output>, PigletError> {
        match stmt {
            Statement::Load { alias, path, schema } => {
                let rel = self.load_csv(&path, &schema)?;
                self.define(alias, rel);
                Ok(None)
            }
            Statement::Filter { alias, input, expr } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                validate_expr(&expr, &schema)?;
                let compiled = Arc::new(expr);
                let s2 = schema.clone();
                let rdd = rel.tuples().filter(move |t| eval(&compiled, &s2, t).is_truthy());
                self.define(alias, Relation { schema, data: RelData::Plain(rdd) });
                Ok(None)
            }
            Statement::Foreach { alias, input, projections } => {
                let rel = self.relation(&input)?;
                let in_schema = rel.schema.clone();
                let mut out_schema = Vec::new();
                for (i, p) in projections.iter().enumerate() {
                    validate_expr(&p.expr, &in_schema)?;
                    out_schema.push(match (&p.alias, &p.expr) {
                        (Some(a), _) => a.clone(),
                        (None, Expr::Field(f)) => f.clone(),
                        (None, _) => format!("f{i}"),
                    });
                }
                let exprs: Arc<Vec<Projection>> = Arc::new(projections);
                let s2 = in_schema.clone();
                let rdd = rel
                    .tuples()
                    .map(move |t| exprs.iter().map(|p| eval(&p.expr, &s2, &t)).collect::<Tuple>());
                self.define(
                    alias,
                    Relation { schema: Arc::new(out_schema), data: RelData::Plain(rdd) },
                );
                Ok(None)
            }
            Statement::SpatialFilter { alias, input, pred, field, query } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let query = const_geom(&query, &schema)?;
                let pred = to_st_predicate(&pred);
                let fidx = Self::field_index(&schema, &field)?;
                let filtered: SpatialRdd<Tuple> = match &rel.data {
                    RelData::Spatial { srdd, field: kf } if *kf == fidx => {
                        srdd.filter(&query, pred)
                    }
                    RelData::Indexed { idx, field: kf } if *kf == fidx => {
                        idx.filter(&query, pred).spatial()
                    }
                    _ => self.keyed(rel, fidx)?.filter(&query, pred),
                };
                let rdd = filtered.rdd().map(|(_, t)| t);
                self.define(alias, Relation { schema, data: RelData::Plain(rdd) });
                Ok(None)
            }
            Statement::Partition { alias, input, spec, field } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let fidx = Self::field_index(&schema, &field)?;
                let keyed = self.keyed(rel, fidx)?;
                let summary = keyed.summarize();
                let partitioner: Arc<dyn SpatialPartitioner> = match spec {
                    PartitionerSpec::Grid { dims } => {
                        Arc::new(GridPartitioner::build(dims.max(1), &summary))
                    }
                    PartitionerSpec::Bsp { max_cost, side_length } => {
                        Arc::new(BspPartitioner::build(max_cost, side_length, &summary))
                    }
                };
                let srdd = keyed.partition_by(partitioner);
                self.define(
                    alias,
                    Relation { schema, data: RelData::Spatial { srdd, field: fidx } },
                );
                Ok(None)
            }
            Statement::Index { alias, input, order } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                match &rel.data {
                    RelData::Spatial { srdd, field } => {
                        let idx = srdd.live_index(order.max(2));
                        let field = *field;
                        self.define(alias, Relation { schema, data: RelData::Indexed { idx, field } });
                        Ok(None)
                    }
                    RelData::Indexed { .. } => Err(exec_err("relation is already indexed")),
                    RelData::Plain(_) => Err(exec_err(
                        "INDEX requires a spatially PARTITIONed relation (so the key field is known)",
                    )),
                }
            }
            Statement::SpatialJoin { alias, left, left_field, right, right_field, pred } => {
                let lrel = self.relation(&left)?;
                let rrel = self.relation(&right)?;
                let lschema = lrel.schema.clone();
                let rschema = rrel.schema.clone();
                let lf = Self::field_index(&lschema, &left_field)?;
                let rf = Self::field_index(&rschema, &right_field)?;
                let lkeyed = self.keyed(lrel, lf)?;
                let rkeyed = self.keyed(rrel, rf)?;
                let pred = to_st_predicate(&pred);
                let joined = lkeyed.join(&rkeyed, pred, JoinConfig::default());
                let rdd = joined.map(|((_, lt), (_, rt))| {
                    let mut t = lt;
                    t.extend(rt);
                    t
                });
                // merge schemas, disambiguating duplicate names
                let mut schema: Vec<String> = lschema.as_ref().clone();
                for name in rschema.iter() {
                    if schema.contains(name) {
                        schema.push(format!("{right}_{name}"));
                    } else {
                        schema.push(name.clone());
                    }
                }
                self.define(
                    alias,
                    Relation { schema: Arc::new(schema), data: RelData::Plain(rdd) },
                );
                Ok(None)
            }
            Statement::Knn { alias, input, field, query, k } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let fidx = Self::field_index(&schema, &field)?;
                let query = const_geom(&query, &schema)?;
                let result = match &rel.data {
                    RelData::Indexed { idx, field: kf } if *kf == fidx => {
                        idx.knn(&query, k, DistanceFn::Euclidean)
                    }
                    _ => self.keyed(rel, fidx)?.knn(&query, k, DistanceFn::Euclidean),
                };
                let rows: Vec<Tuple> = result
                    .into_iter()
                    .map(|(d, (_, mut t))| {
                        t.push(Value::Double(d));
                        t
                    })
                    .collect();
                let mut out_schema = schema.as_ref().clone();
                out_schema.push("distance".to_string());
                let n = rows.len().max(1);
                let rdd = self.ctx.parallelize(rows, n.min(self.ctx.default_partitions()));
                self.define(
                    alias,
                    Relation { schema: Arc::new(out_schema), data: RelData::Plain(rdd) },
                );
                Ok(None)
            }
            Statement::Cluster { alias, input, eps, min_pts, field } => {
                if eps <= 0.0 {
                    return Err(exec_err("DBSCAN eps must be positive"));
                }
                if min_pts == 0 {
                    return Err(exec_err("DBSCAN minPts must be at least 1"));
                }
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let fidx = Self::field_index(&schema, &field)?;
                let keyed = self.keyed(rel, fidx)?;
                let clustered = dbscan(&keyed, DbscanParams::new(eps, min_pts));
                let rdd = clustered.map(|(_, mut t, cluster)| {
                    t.push(match cluster {
                        Some(c) => Value::Int(c as i64),
                        None => Value::Null,
                    });
                    t
                });
                let mut out_schema = schema.as_ref().clone();
                out_schema.push("cluster".to_string());
                self.define(
                    alias,
                    Relation { schema: Arc::new(out_schema), data: RelData::Plain(rdd) },
                );
                Ok(None)
            }
            Statement::Colocate {
                alias,
                input,
                category_field,
                geo_field,
                distance,
                min_participation,
            } => {
                if distance <= 0.0 {
                    return Err(exec_err("COLOCATE distance must be positive"));
                }
                if !(0.0..=1.0).contains(&min_participation) {
                    return Err(exec_err("COLOCATE minPI must be in [0, 1]"));
                }
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let cat_idx = Self::field_index(&schema, &category_field)?;
                let geo_idx = Self::field_index(&schema, &geo_field)?;
                let keyed = self.keyed(rel, geo_idx)?;
                let patterns = colocation_patterns(
                    &keyed,
                    move |t: &Tuple| t[cat_idx].to_string(),
                    ColocationParams::new(distance, min_participation),
                );
                let rows: Vec<Tuple> = patterns
                    .into_iter()
                    .map(|p| {
                        vec![
                            Value::Str(p.categories.0),
                            Value::Str(p.categories.1),
                            Value::Double(p.participation_index),
                            Value::Int(p.pair_count as i64),
                        ]
                    })
                    .collect();
                let parts = rows.len().max(1).min(self.ctx.default_partitions());
                let rdd = self.ctx.parallelize(rows, parts);
                let out_schema = vec!["cat_a".into(), "cat_b".into(), "pi".into(), "pairs".into()];
                self.define(
                    alias,
                    Relation { schema: Arc::new(out_schema), data: RelData::Plain(rdd) },
                );
                Ok(None)
            }
            Statement::GroupCount { alias, input, field } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let fidx = Self::field_index(&schema, &field)?;
                // group on the display form (Value is not hashable), keep
                // a representative original value per group
                let counted = rel
                    .tuples()
                    .map(move |t| (t[fidx].to_string(), (t[fidx].clone(), 1u64)))
                    .reduce_by_key(self.ctx.default_partitions(), |(v, a), (_, b)| (v, a + b))
                    .map(|(_, (v, count))| vec![v, Value::Int(count as i64)]);
                let out_schema = vec![field, "count".to_string()];
                self.define(
                    alias,
                    Relation { schema: Arc::new(out_schema), data: RelData::Plain(counted) },
                );
                Ok(None)
            }
            Statement::Limit { alias, input, n } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let rows = rel.tuples().take(n);
                let parts = rows.len().max(1).min(self.ctx.default_partitions());
                let rdd = self.ctx.parallelize(rows, parts);
                self.define(alias, Relation { schema, data: RelData::Plain(rdd) });
                Ok(None)
            }
            Statement::OrderBy { alias, input, field, desc } => {
                let rel = self.relation(&input)?;
                let schema = rel.schema.clone();
                let fidx = Self::field_index(&schema, &field)?;
                // distributed sample-sort on an order-preserving encoding
                // of the field: numbers before strings before geometries
                // before nulls, numerically/lexically within each class
                let parts = self.ctx.default_partitions();
                let key = move |t: &Tuple| sort_key(&t[fidx]);
                let rdd = if desc {
                    rel.tuples().sort_by(parts, move |t| std::cmp::Reverse(key(t)))
                } else {
                    rel.tuples().sort_by(parts, key)
                };
                self.define(alias, Relation { schema, data: RelData::Plain(rdd) });
                Ok(None)
            }
            Statement::Dump { input } => {
                let rel = self.relation(&input)?;
                let lines = rel.tuples().collect().iter().map(format_tuple).collect();
                Ok(Some(Output::Dump { alias: input, lines }))
            }
            Statement::Describe { input } => {
                let rel = self.relation(&input)?;
                let schema = format!("{}: ({})", input, rel.schema.join(", "));
                Ok(Some(Output::Describe { alias: input, schema }))
            }
            Statement::Explain { input } => {
                let rel = self.relation(&input)?;
                let (form, lineage) = match &rel.data {
                    RelData::Plain(rdd) => ("plain".to_string(), rdd.explain()),
                    RelData::Spatial { srdd, field } => (
                        format!(
                            "spatially partitioned on field #{field} ({} partitions)",
                            srdd.num_partitions()
                        ),
                        srdd.rdd().explain(),
                    ),
                    RelData::Indexed { idx, field } => (
                        format!(
                            "live-indexed on field #{field} (order {}, {} partitions)",
                            idx.order(),
                            idx.num_partitions()
                        ),
                        idx.trees().explain(),
                    ),
                };
                let plan = format!(
                    "{input}: ({})\nform: {form}\nlineage:\n{lineage}",
                    rel.schema.join(", ")
                );
                Ok(Some(Output::Explained { alias: input, plan }))
            }
            Statement::Store { input, path } => {
                let rel = self.relation(&input)?;
                let rows = rel.tuples().collect();
                let mut out = String::new();
                for t in &rows {
                    let fields: Vec<String> = t
                        .iter()
                        .map(|v| match v {
                            Value::Geom(g) => format!("\"{g}\""),
                            other => other.to_string(),
                        })
                        .collect();
                    out.push_str(&fields.join(","));
                    out.push('\n');
                }
                std::fs::write(&path, out)
                    .map_err(|e| exec_err(format!("cannot write {path:?}: {e}")))?;
                Ok(Some(Output::Stored { alias: input, path, records: rows.len() }))
            }
        }
    }

    /// Keyed `(STObject, Tuple)` view of a relation by field index,
    /// preserving spatial partitioning when the key field matches.
    fn keyed(&self, rel: &Relation, field: usize) -> Result<SpatialRdd<Tuple>, PigletError> {
        match &rel.data {
            RelData::Spatial { srdd, field: kf } if *kf == field => Ok(srdd.clone()),
            _ => {
                let rdd = rel.tuples().map(move |t| {
                    let key = match &t[field] {
                        Value::Geom(g) => g.clone(),
                        // non-geometry keys become empty points far away;
                        // they never match a predicate
                        _ => STObject::point(f64::NAN, f64::NAN),
                    };
                    (key, t)
                });
                Ok(rdd.spatial())
            }
        }
    }

    fn load_csv(&self, path: &str, schema: &[(String, String)]) -> Result<Relation, PigletError> {
        if schema.is_empty() {
            return Err(exec_err("LOAD requires an AS (...) schema"));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| exec_err(format!("cannot read {path:?}: {e}")))?;
        let mut rows = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields = split_csv(line);
            if fields.len() != schema.len() {
                return Err(exec_err(format!(
                    "{path}:{}: expected {} fields, got {}",
                    lineno + 1,
                    schema.len(),
                    fields.len()
                )));
            }
            let mut tuple = Vec::with_capacity(fields.len());
            for ((name, ty), raw) in schema.iter().zip(fields) {
                tuple.push(
                    parse_field(&raw, ty).map_err(|e| {
                        exec_err(format!("{path}:{}: field {name}: {e}", lineno + 1))
                    })?,
                );
            }
            rows.push(tuple);
        }
        let names = schema.iter().map(|(n, _)| n.clone()).collect();
        let rdd = self.ctx.parallelize_default(rows);
        Ok(Relation { schema: Arc::new(names), data: RelData::Plain(rdd) })
    }
}

/// Total-order encoding of a [`Value`] for distributed sorting:
/// `(class, numeric-bits, text)` where the numeric bits are the standard
/// order-preserving IEEE-754 transform.
fn sort_key(v: &Value) -> (u8, u64, String) {
    fn f64_bits_ordered(v: f64) -> u64 {
        let b = v.to_bits();
        if v.is_sign_negative() {
            !b
        } else {
            b ^ 0x8000_0000_0000_0000
        }
    }
    match v {
        Value::Bool(b) => (0, f64_bits_ordered(if *b { 1.0 } else { 0.0 }), String::new()),
        Value::Int(i) => (0, f64_bits_ordered(*i as f64), String::new()),
        Value::Double(d) => (0, f64_bits_ordered(*d), String::new()),
        Value::Str(s) => (1, 0, s.clone()),
        Value::Geom(g) => (2, 0, g.to_string()),
        Value::Null => (3, 0, String::new()),
    }
}

/// Splits a CSV line on commas outside double quotes; strips quotes.
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            other => cur.push(other),
        }
    }
    fields.push(cur);
    fields.into_iter().map(|f| f.trim().to_string()).collect()
}

fn parse_field(raw: &str, ty: &str) -> Result<Value, String> {
    match ty {
        "int" | "long" => raw.parse::<i64>().map(Value::Int).map_err(|e| e.to_string()),
        "float" | "double" => raw.parse::<f64>().map(Value::Double).map_err(|e| e.to_string()),
        "chararray" => Ok(Value::Str(raw.to_string())),
        "boolean" => raw.parse::<bool>().map(Value::Bool).map_err(|e| e.to_string()),
        "stobject" | "geometry" | "wkt" => Geometry::from_wkt(raw)
            .map(|g| Value::Geom(STObject::new(g)))
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown type {other:?}")),
    }
}

fn to_st_predicate(p: &SpatialPredicate) -> STPredicate {
    match p {
        SpatialPredicate::Intersects => STPredicate::Intersects,
        SpatialPredicate::Contains => STPredicate::Contains,
        SpatialPredicate::ContainedBy => STPredicate::ContainedBy,
        SpatialPredicate::WithinDistance { max_dist, dist_fn } => {
            STPredicate::WithinDistance { max_dist: *max_dist, dist_fn: *dist_fn }
        }
    }
}

/// Evaluates a constant expression (no field references) to an STObject.
fn const_geom(expr: &Expr, schema: &Arc<Vec<String>>) -> Result<STObject, PigletError> {
    validate_expr(expr, schema)?;
    match eval(expr, schema, &Vec::new()) {
        Value::Geom(g) => Ok(g),
        other => Err(exec_err(format!(
            "query expression must produce an stobject, got {}",
            other.type_name()
        ))),
    }
}

/// Checks field references and function arities up front, so runtime
/// evaluation can be infallible (bad dynamic types yield `Null`).
fn validate_expr(expr: &Expr, schema: &[String]) -> Result<(), PigletError> {
    match expr {
        Expr::Field(name) => {
            Executor::field_index(schema, name)?;
            Ok(())
        }
        Expr::IntLit(_) | Expr::DoubleLit(_) | Expr::StrLit(_) | Expr::BoolLit(_) => Ok(()),
        Expr::Param(i) => Err(exec_err(format!(
            "unbound plan parameter ?{i}: normalized templates must be instantiated before execution"
        ))),
        Expr::Not(e) | Expr::Neg(e) => validate_expr(e, schema),
        Expr::Bin(_, a, b) => {
            validate_expr(a, schema)?;
            validate_expr(b, schema)
        }
        Expr::Call(name, args) => {
            let arity_ok = match name.as_str() {
                "ST" | "STOBJECT" => (1..=3).contains(&args.len()),
                "GEO" => args.len() == 1,
                "INTERSECTS" | "CONTAINS" | "CONTAINEDBY" | "DISTANCE" => args.len() == 2,
                "WITHINDISTANCE" => args.len() == 3,
                "X" | "Y" | "AREA" | "WKT" | "TSTART" => args.len() == 1,
                other => return Err(exec_err(format!("unknown function {other}"))),
            };
            if !arity_ok {
                return Err(exec_err(format!("wrong argument count for {name}")));
            }
            for a in args {
                validate_expr(a, schema)?;
            }
            Ok(())
        }
    }
}

/// Evaluates an expression against a tuple. Type mismatches produce
/// `Null`, which is falsy and propagates.
fn eval(expr: &Expr, schema: &[String], tuple: &Tuple) -> Value {
    match expr {
        Expr::Field(name) => schema
            .iter()
            .position(|f| f == name)
            .and_then(|i| tuple.get(i).cloned())
            .unwrap_or(Value::Null),
        Expr::IntLit(v) => Value::Int(*v),
        Expr::DoubleLit(v) => Value::Double(*v),
        Expr::StrLit(s) => Value::Str(s.clone()),
        Expr::BoolLit(b) => Value::Bool(*b),
        // unbound parameters are rejected by validate_expr; evaluation
        // treats a stray one like any other type error
        Expr::Param(_) => Value::Null,
        Expr::Not(e) => match eval(e, schema, tuple) {
            Value::Bool(b) => Value::Bool(!b),
            _ => Value::Null,
        },
        Expr::Neg(e) => match eval(e, schema, tuple) {
            Value::Int(v) => Value::Int(-v),
            Value::Double(v) => Value::Double(-v),
            _ => Value::Null,
        },
        Expr::Bin(op, a, b) => {
            let va = eval(a, schema, tuple);
            let vb = eval(b, schema, tuple);
            eval_bin(*op, va, vb)
        }
        Expr::Call(name, args) => {
            let vals: Vec<Value> = args.iter().map(|a| eval(a, schema, tuple)).collect();
            eval_call(name, &vals)
        }
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    match op {
        Or => match (&a, &b) {
            (Value::Bool(x), Value::Bool(y)) => Value::Bool(*x || *y),
            _ => Value::Null,
        },
        And => match (&a, &b) {
            (Value::Bool(x), Value::Bool(y)) => Value::Bool(*x && *y),
            _ => Value::Null,
        },
        Eq => Value::Bool(a.loose_eq(&b)),
        Neq => Value::Bool(!a.loose_eq(&b)),
        Lt | Lte | Gt | Gte => match a.loose_cmp(&b) {
            Some(ord) => Value::Bool(match op {
                Lt => ord.is_lt(),
                Lte => ord.is_le(),
                Gt => ord.is_gt(),
                Gte => ord.is_ge(),
                _ => unreachable!(),
            }),
            None => Value::Null,
        },
        Add | Sub | Mul | Div => match (&a, &b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Add => Value::Int(x + y),
                Sub => Value::Int(x - y),
                Mul => Value::Int(x * y),
                Div => {
                    if *y == 0 {
                        Value::Null
                    } else {
                        Value::Int(x / y)
                    }
                }
                _ => unreachable!(),
            },
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Double(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                }),
                _ => Value::Null,
            },
        },
    }
}

fn eval_call(name: &str, args: &[Value]) -> Value {
    match name {
        // ST(wkt), ST(wkt, instant), ST(wkt, begin, end)
        "ST" | "STOBJECT" => {
            let Some(wkt) = args.first().and_then(|v| v.as_str()) else {
                return Value::Null;
            };
            let Ok(geo) = Geometry::from_wkt(wkt) else { return Value::Null };
            match args.len() {
                1 => Value::Geom(STObject::new(geo)),
                2 => match args[1].as_i64() {
                    Some(t) => Value::Geom(STObject::with_time(geo, Temporal::instant(t))),
                    None => Value::Null,
                },
                _ => match (args[1].as_i64(), args[2].as_i64()) {
                    (Some(b), Some(e)) if e >= b => {
                        Value::Geom(STObject::with_time(geo, Temporal::interval(b, e)))
                    }
                    _ => Value::Null,
                },
            }
        }
        "GEO" => match args[0].as_str().and_then(|w| Geometry::from_wkt(w).ok()) {
            Some(g) => Value::Geom(STObject::new(g)),
            None => Value::Null,
        },
        "INTERSECTS" | "CONTAINS" | "CONTAINEDBY" => match (args[0].as_geom(), args[1].as_geom()) {
            (Some(a), Some(b)) => Value::Bool(match name {
                "INTERSECTS" => a.intersects(b),
                "CONTAINS" => a.contains(b),
                _ => a.contained_by(b),
            }),
            _ => Value::Null,
        },
        "DISTANCE" => match (args[0].as_geom(), args[1].as_geom()) {
            (Some(a), Some(b)) => Value::Double(a.distance(b, DistanceFn::Euclidean)),
            _ => Value::Null,
        },
        "WITHINDISTANCE" => match (args[0].as_geom(), args[1].as_geom(), args[2].as_f64()) {
            (Some(a), Some(b), Some(d)) => Value::Bool(a.distance(b, DistanceFn::Euclidean) <= d),
            _ => Value::Null,
        },
        "X" => match args[0].as_geom() {
            Some(g) => Value::Double(g.centroid().x),
            None => Value::Null,
        },
        "Y" => match args[0].as_geom() {
            Some(g) => Value::Double(g.centroid().y),
            None => Value::Null,
        },
        "AREA" => match args[0].as_geom() {
            Some(g) => Value::Double(g.envelope().area()),
            None => Value::Null,
        },
        "WKT" => match args[0].as_geom() {
            Some(g) => Value::Str(g.geo().to_wkt()),
            None => Value::Null,
        },
        "TSTART" => match args[0].as_geom().and_then(|g| g.time().map(|t| t.start())) {
            Some(t) => Value::Int(t),
            None => Value::Null,
        },
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn executor() -> Executor {
        Executor::new(Context::with_parallelism(4))
    }

    fn event_rows() -> (Vec<String>, Vec<Tuple>) {
        let schema = vec!["id".to_string(), "cat".to_string(), "t".to_string(), "wkt".to_string()];
        let rows: Vec<Tuple> = (0..50)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(if i % 2 == 0 { "concert" } else { "protest" }.into()),
                    Value::Int(i * 10),
                    Value::Str(format!("POINT({} {})", i % 10, i / 10)),
                ]
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn filter_and_dump() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        let out = ex.run_script("f = FILTER ev BY cat == 'concert' AND id < 10;\nDUMP f;").unwrap();
        match &out[0] {
            Output::Dump { lines, .. } => {
                assert_eq!(lines.len(), 5);
                assert!(lines[0].starts_with("(0,concert,"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn foreach_builds_stobjects() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        ex.run_script("g = FOREACH ev GENERATE id, ST(wkt, t) AS obj;").unwrap();
        assert_eq!(ex.schema("g").unwrap(), vec!["id", "obj"]);
        let tuples = ex.collect("g").unwrap();
        assert_eq!(tuples.len(), 50);
        assert!(matches!(tuples[0][1], Value::Geom(_)));
    }

    #[test]
    fn spatial_filter_pipeline() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        let out = ex
            .run_script(
                r#"
                g = FOREACH ev GENERATE id, ST(wkt, t) AS obj;
                s = SPATIAL_FILTER g BY CONTAINEDBY(obj, ST('POLYGON((0 0, 4.5 0, 4.5 2.5, 0 2.5, 0 0))', 0, 10000));
                DUMP s;
                "#,
            )
            .unwrap();
        match &out[0] {
            Output::Dump { lines, .. } => {
                // lattice points with x in 0..=4, y in 0..=2 → ids: x + 10*y
                assert_eq!(lines.len(), 15);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partitioned_and_indexed_filter_agree_with_plain() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        let script = r#"
            g = FOREACH ev GENERATE id, ST(wkt, t) AS obj;
            plain = SPATIAL_FILTER g BY INTERSECTS(obj, ST('POLYGON((1 1, 6 1, 6 4, 1 4, 1 1))', 0, 10000));
            p = PARTITION g BY GRID(3) ON obj;
            part = SPATIAL_FILTER p BY INTERSECTS(obj, ST('POLYGON((1 1, 6 1, 6 4, 1 4, 1 1))', 0, 10000));
            i = INDEX p ORDER 5;
            idx = SPATIAL_FILTER i BY INTERSECTS(obj, ST('POLYGON((1 1, 6 1, 6 4, 1 4, 1 1))', 0, 10000));
        "#;
        ex.run_script(script).unwrap();
        let count = |alias: &str| ex.collect(alias).unwrap().len();
        assert!(count("plain") > 0);
        assert_eq!(count("plain"), count("part"));
        assert_eq!(count("plain"), count("idx"));
    }

    #[test]
    fn spatial_join_concatenates_schemas() {
        let mut ex = executor();
        ex.register(
            "a",
            vec!["id".into(), "obj".into()],
            vec![
                vec![Value::Int(1), Value::Geom(STObject::point(0.0, 0.0))],
                vec![Value::Int(2), Value::Geom(STObject::point(5.0, 5.0))],
            ],
        );
        ex.register(
            "b",
            vec!["id".into(), "obj".into()],
            vec![vec![Value::Int(7), Value::Geom(STObject::point(0.0, 0.0))]],
        );
        ex.run_script("j = SPATIAL_JOIN a BY obj, b BY obj USING INTERSECTS;").unwrap();
        assert_eq!(ex.schema("j").unwrap(), vec!["id", "obj", "b_id", "b_obj"]);
        let rows = ex.collect("j").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][2], Value::Int(7));
    }

    #[test]
    fn knn_statement() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        ex.run_script(
            "g = FOREACH ev GENERATE id, ST(wkt) AS obj;\nk = KNN g BY obj QUERY ST('POINT(0 0)') K 3;",
        )
        .unwrap();
        let rows = ex.collect("k").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(0), "nearest to origin is id 0");
        assert_eq!(ex.schema("k").unwrap().last().unwrap(), "distance");
    }

    #[test]
    fn indexed_knn_of_a_polygon_focus_is_exact() {
        // one partition, one tree: 40 points at (50 … 50.39, 10) and one
        // at (0, 2), the only one within distance 1 of the polygon
        let mut ex = executor();
        let mut rows: Vec<Tuple> = (0..40)
            .map(|i| {
                vec![Value::Int(i), Value::Str(format!("POINT({} 10)", 50.0 + i as f64 * 0.01))]
            })
            .collect();
        rows.push(vec![Value::Int(40), Value::Str("POINT(0 2)".into())]);
        ex.register("ev", vec!["id".into(), "wkt".into()], rows);
        ex.run_script(
            "g = FOREACH ev GENERATE id, ST(wkt) AS obj;\np = PARTITION g BY GRID(1) ON obj;\n\
             i = INDEX p ORDER 16;\n\
             k = KNN i BY obj QUERY ST('POLYGON((0 0, 100 0, 100 1, 0 1, 0 0))') K 1;",
        )
        .unwrap();
        let rows = ex.collect("k").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(40));
        assert_eq!(rows[0].last(), Some(&Value::Double(1.0)));
    }

    #[test]
    fn cluster_statement() {
        let mut ex = executor();
        // two tight groups far apart
        let mut rows = Vec::new();
        for i in 0..8 {
            rows.push(vec![Value::Int(i), Value::Geom(STObject::point(i as f64 * 0.1, 0.0))]);
        }
        for i in 0..8 {
            rows.push(vec![
                Value::Int(100 + i),
                Value::Geom(STObject::point(100.0 + i as f64 * 0.1, 0.0)),
            ]);
        }
        ex.register("pts", vec!["id".into(), "obj".into()], rows);
        ex.run_script("c = CLUSTER pts BY DBSCAN(0.2, 3) ON obj;").unwrap();
        let out = ex.collect("c").unwrap();
        let clusters: std::collections::BTreeSet<String> =
            out.iter().map(|t| t.last().unwrap().to_string()).collect();
        assert_eq!(clusters.len(), 2, "two clusters expected: {clusters:?}");
    }

    #[test]
    fn colocate_statement() {
        let mut ex = executor();
        let mut rows = Vec::new();
        for i in 0..10 {
            let x = i as f64 * 10.0;
            rows.push(vec![Value::Str("cafe".into()), Value::Geom(STObject::point(x, 0.0))]);
            rows.push(vec![
                Value::Str("bakery".into()),
                Value::Geom(STObject::point(x + 0.5, 0.0)),
            ]);
        }
        ex.register("shops", vec!["cat".into(), "obj".into()], rows);
        ex.run_script("p = COLOCATE shops BY cat ON obj DISTANCE 1.0 MINPI 0.5;\nDUMP p;").unwrap();
        let got = ex.collect("p").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0], Value::Str("bakery".into()));
        assert_eq!(got[0][1], Value::Str("cafe".into()));
        assert_eq!(got[0][2], Value::Double(1.0));
        assert_eq!(ex.schema("p").unwrap(), vec!["cat_a", "cat_b", "pi", "pairs"]);
        // bad parameters error out
        assert!(ex.run_script("x = COLOCATE shops BY cat ON obj DISTANCE 0 MINPI 0.5;").is_err());
        assert!(ex.run_script("x = COLOCATE shops BY cat ON obj DISTANCE 1 MINPI 2;").is_err());
    }

    #[test]
    fn explain_statement() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        let out = ex
            .run_script(
                "g = FOREACH ev GENERATE id, ST(wkt, t) AS obj;\np = PARTITION g BY GRID(3) ON obj;\ni = INDEX p ORDER 5;\nEXPLAIN g;\nEXPLAIN p;\nEXPLAIN i;",
            )
            .unwrap();
        match &out[0] {
            Output::Explained { plan, .. } => {
                assert!(plan.contains("form: plain"));
                assert!(plan.contains("Map"));
            }
            other => panic!("{other:?}"),
        }
        match &out[1] {
            Output::Explained { plan, .. } => {
                assert!(plan.contains("spatially partitioned"));
                assert!(plan.contains("Shuffle"));
            }
            other => panic!("{other:?}"),
        }
        match &out[2] {
            Output::Explained { plan, .. } => {
                assert!(plan.contains("live-indexed"), "{plan}");
                assert!(plan.contains("order 5"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_counts_categories() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        ex.run_script("g = GROUP ev BY cat;\no = ORDER g BY cat;").unwrap();
        assert_eq!(ex.schema("g").unwrap(), vec!["cat", "count"]);
        let rows = ex.collect("o").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("concert".into()));
        assert_eq!(rows[0][1], Value::Int(25));
        assert_eq!(rows[1][0], Value::Str("protest".into()));
        assert_eq!(rows[1][1], Value::Int(25));
    }

    #[test]
    fn limit_order_describe() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        let out = ex
            .run_script("o = ORDER ev BY id DESC;\nl = LIMIT o 3;\nDUMP l;\nDESCRIBE l;")
            .unwrap();
        match &out[0] {
            Output::Dump { lines, .. } => {
                assert_eq!(lines.len(), 3);
                assert!(lines[0].starts_with("(49,"));
            }
            other => panic!("{other:?}"),
        }
        match &out[1] {
            Output::Describe { schema, .. } => assert!(schema.contains("id, cat, t, wkt")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_and_store_roundtrip() {
        let mut ex = executor();
        let path = std::env::temp_dir().join(format!("piglet-load-{}.csv", std::process::id()));
        std::fs::write(&path, "1,concert,10,\"POINT (1 2)\"\n2,flood,20,\"POINT (3 4)\"\n")
            .unwrap();
        let out_path =
            std::env::temp_dir().join(format!("piglet-store-{}.csv", std::process::id()));
        let script = format!(
            "ev = LOAD '{}' AS (id:long, cat:chararray, t:long, obj:stobject);\nSTORE ev INTO '{}';",
            path.display(),
            out_path.display()
        );
        let out = ex.run_script(&script).unwrap();
        assert!(matches!(&out[0], Output::Stored { records: 2, .. }));
        let stored = std::fs::read_to_string(&out_path).unwrap();
        assert!(stored.contains("POINT (1 2)"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn error_cases() {
        let mut ex = executor();
        let (schema, rows) = event_rows();
        ex.register("ev", schema, rows);
        assert!(ex.run_script("DUMP missing;").is_err());
        assert!(ex.run_script("f = FILTER ev BY nosuchfield == 1;").is_err());
        assert!(ex.run_script("f = FILTER ev BY FROB(id) == 1;").is_err());
        assert!(ex.run_script("i = INDEX ev ORDER 5;").is_err(), "index needs partitioning");
        assert!(ex.run_script("c = CLUSTER ev BY DBSCAN(0.5, 0) ON wkt;").is_err());
        // spatial filter with a non-geometry query expression
        assert!(ex.run_script("s = SPATIAL_FILTER ev BY INTERSECTS(wkt, 1 + 2);").is_err());
    }
}
