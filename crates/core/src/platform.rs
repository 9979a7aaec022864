//! The platform: relational base, semantic store, context integration,
//! triple tags and automatic annotation.

use std::collections::BTreeMap;
use std::sync::Arc;

use lodify_context::{ContextPlatform, ContextSnapshot};
use lodify_d2r::defaults::coppermine_mapping;
use lodify_d2r::{dump, Mapping};
use lodify_durability::{
    Delta, DurabilityOptions, DurabilityStats, DurableStore, GroupCommitPolicy, RecoveryReport,
    Storage,
};
use lodify_lod::annotator::{Annotator, ContentInput, PoiRefInput};
use lodify_lod::cache::{SemanticCache, SemanticCacheStats};
use lodify_lod::datasets::{load_lod, GRAPH_UGC};
use lodify_lod::AnnotationResult;
use lodify_obs::{Obs, Span};
use lodify_rdf::{ns, Iri, Point, Term, Triple};
use lodify_relational::workload::{generate, PictureTruth, WorkloadConfig};
use lodify_relational::{coppermine as cpg, Database, SqlValue};
use lodify_resilience::FaultPlan;
use lodify_store::{GraphId, Store, StoreSnapshot};
use lodify_tripletags::context_tags::tags_for;
use lodify_tripletags::{Tag, TagIndex, TripleTag};

use crate::albums::AlbumSpec;
use crate::commit::{PlatformDelta, Provenance};
use crate::error::PlatformError;
use crate::federation::Acct;
use crate::live::{AlbumCacheStats, LiveAlbumId, LiveService, SubscriberId};
use crate::replication::{Emission, EmissionOutbox, EmissionQuad};

/// Annotation predicate: content → LOD resource it is about.
pub fn subject_pred() -> Iri {
    ns::DCTERMS.iri("subject")
}

/// Annotation predicate: content → Geonames city it was taken in.
pub fn located_in_pred() -> Iri {
    ns::TL.iri("locatedIn")
}

/// Annotation predicate: content → nearby buddy (local resource).
pub fn with_buddy_pred() -> Iri {
    ns::TL.iri("withBuddy")
}

/// A new content upload from the mobile client (§1.1: title, custom
/// tags, timestamp, GPS when available, optional POI attachment).
#[derive(Debug, Clone)]
pub struct Upload {
    /// Uploading user.
    pub user_id: i64,
    /// Title typed by the user.
    pub title: String,
    /// Plain folksonomy tags.
    pub tags: Vec<String>,
    /// Capture timestamp (Unix seconds).
    pub ts: i64,
    /// GPS position, when the device had a fix.
    pub gps: Option<Point>,
    /// Explicit POI attachment from the search provider
    /// (`poi:recs_id`), as `(name, category, position)`.
    pub poi: Option<(String, String, Point)>,
}

/// Per-upload processing summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadReceipt {
    /// The new picture id.
    pub pid: i64,
    /// The minted picture resource.
    pub resource: Iri,
    /// Triples added to the UGC graph for this upload.
    pub triples_added: usize,
    /// Context triple tags generated.
    pub context_tags: usize,
    /// Term annotations that fired.
    pub auto_annotations: usize,
}

/// An upload that has passed the *prepare* stage: validated, context
/// analyzed, and ready for read-only annotation followed by the short
/// commit stage. Produced by [`Platform::stage_upload`], consumed by
/// [`Platform::commit_staged`]; [`crate::ingest::IngestPool`] runs the
/// annotation of many staged uploads concurrently because that stage
/// only reads the store.
#[derive(Debug, Clone)]
pub struct StagedUpload {
    pub(crate) upload: Upload,
    pub(crate) aid: i64,
    pub(crate) snapshot: ContextSnapshot,
    pub(crate) context_tags: Vec<TripleTag>,
    pub(crate) poi_input: Option<PoiRefInput>,
}

impl StagedUpload {
    /// The annotation-pipeline input for this staged upload. Borrows
    /// only the staged data, so annotation can run against a shared
    /// store reference on any thread.
    pub(crate) fn content_input(&self) -> ContentInput<'_> {
        ContentInput {
            title: &self.upload.title,
            tags: &self.upload.tags,
            context: Some(&self.snapshot),
            poi_ref: self.poi_input.clone(),
        }
    }

    /// Capture timestamp (commit order of batched ingest).
    pub fn ts(&self) -> i64 {
        self.upload.ts
    }
}

/// A legacy picture staged for batch (re-)annotation: everything the
/// read-only annotation stage needs, extracted from relational state
/// by [`Platform::stage_legacy`].
#[derive(Debug, Clone)]
pub struct StagedLegacy {
    pub(crate) pid: i64,
    pub(crate) title: String,
    pub(crate) tags: Vec<String>,
    pub(crate) snapshot: Option<ContextSnapshot>,
    pub(crate) poi_input: Option<PoiRefInput>,
}

impl StagedLegacy {
    /// The annotation-pipeline input for this staged picture.
    pub(crate) fn content_input(&self) -> ContentInput<'_> {
        ContentInput {
            title: &self.title,
            tags: &self.tags,
            context: self.snapshot.as_ref(),
            poi_ref: self.poi_input.clone(),
        }
    }

    /// The picture id being (re-)annotated.
    pub fn pid(&self) -> i64 {
        self.pid
    }
}

/// The LODified platform.
pub struct Platform {
    db: Database,
    store: DurableStore,
    ugc_graph: GraphId,
    mapping: Mapping,
    context: ContextPlatform,
    annotator: Annotator,
    tags: TagIndex,
    annotations: BTreeMap<i64, AnnotationResult>,
    truth: Vec<PictureTruth>,
    fault_plan: Option<FaultPlan>,
    semantic_cache: Arc<SemanticCache>,
    obs: Obs,
    outbox: EmissionOutbox,
    live: LiveService,
    cardinality: lodify_sparql::CardinalityProfile,
    plan_cache: lodify_sparql::PlanCache,
    admission: Option<crate::admission::AdmissionController>,
}

impl Platform {
    /// Bootstraps a full platform: generates the UGC workload, loads
    /// the LOD snapshots, runs the D2R semanticization (§2.1), wires
    /// the context platform from the relational data, and builds the
    /// triple-tag baseline index. Annotation of the legacy content is
    /// a separate batch step ([`crate::batch::BatchAnnotator`]) —
    /// exactly the situation §6 describes ("a huge amount of content already
    /// present in our platform … remains to be semantically annotated").
    pub fn bootstrap(config: WorkloadConfig) -> Result<Platform, PlatformError> {
        Self::assemble(config, |store| {
            Ok((DurableStore::ephemeral(store), RecoveryReport::default()))
        })
        .map(|(platform, _)| platform)
    }

    /// Bootstraps a platform whose semantic store is backed by the
    /// durability engine. On fresh storage the freshly semanticized
    /// seed store is *adopted* (written as the initial snapshot
    /// generation); on later boots the store — triple indexes,
    /// fulltext, geo, stats — is **recovered** from the journal to the
    /// last acknowledged commit instead of being rebuilt, and the
    /// [`RecoveryReport`] says what was replayed. The *seed* relational
    /// base, context platform and tag index are deterministic functions
    /// of the workload config and are re-derived on every boot; every
    /// commit since (uploads, ratings, legacy annotations) then replays
    /// from its WAL record's platform delta through the same
    /// `apply` the live commit ran — rows, tags, annotation results,
    /// last-seen positions and emission sequence numbers — so a restart
    /// serves exactly what the crashed process had acknowledged.
    pub fn bootstrap_durable(
        config: WorkloadConfig,
        storage: Box<dyn Storage>,
        options: DurabilityOptions,
    ) -> Result<(Platform, RecoveryReport), PlatformError> {
        Self::assemble(config, move |store| {
            Ok(DurableStore::open_or_adopt(storage, options, move || {
                store
            })?)
        })
    }

    fn assemble(
        config: WorkloadConfig,
        persist: impl FnOnce(Store) -> Result<(DurableStore, RecoveryReport), PlatformError>,
    ) -> Result<(Platform, RecoveryReport), PlatformError> {
        let workload = generate(config);
        let mut store = Store::new();
        load_lod(&mut store, lodify_context::Gazetteer::global());
        let ugc_graph = store.graph(GRAPH_UGC);

        let mapping = coppermine_mapping();
        let (triples, _stats) = dump::dump_rdf(&workload.db, &mapping)?;
        store.insert_all(&triples, ugc_graph);

        // Hand the seed store to the persistence layer; a recovery
        // replaces it wholesale with the journaled one.
        let (mut store, mut report) = persist(store)?;
        let ugc_graph = store.graph(GRAPH_UGC);

        // Context platform from relational state.
        let mut context = ContextPlatform::new();
        let users = workload.db.table(cpg::USERS)?;
        for (uid, row) in users.scan() {
            let user_name = row[1].as_text().unwrap_or_default();
            let full_name = row[2].as_text().unwrap_or_default();
            context
                .buddies_mut()
                .add_user(uid as u64, user_name, full_name);
        }
        let friends = workload.db.table(cpg::FRIENDS)?;
        for (_, row) in friends.scan() {
            if let (Some(a), Some(b)) = (row[1].as_int(), row[2].as_int()) {
                context.buddies_mut().add_friend(a as u64, b as u64);
            }
        }
        // Last-seen positions: each user's latest GPS-bearing picture.
        let pictures = workload.db.table(cpg::PICTURES)?;
        for (_, row) in pictures.scan() {
            if let (Some(owner), Some(lon), Some(lat)) =
                (row[2].as_int(), row[6].as_real(), row[7].as_real())
            {
                if let Ok(point) = Point::new(lon, lat) {
                    context.buddies_mut().update_position(owner as u64, point);
                }
            }
        }

        let mut platform = Platform {
            db: workload.db,
            store,
            ugc_graph,
            mapping,
            context,
            annotator: Annotator::standard(),
            tags: TagIndex::new(),
            annotations: BTreeMap::new(),
            truth: workload.truth,
            fault_plan: None,
            semantic_cache: Arc::new(SemanticCache::new()),
            obs: Obs::new(),
            outbox: EmissionOutbox::default(),
            live: LiveService::new(),
            cardinality: lodify_sparql::CardinalityProfile::new(),
            plan_cache: lodify_sparql::PlanCache::new(),
            admission: None,
        };
        platform.wire_observability();
        platform.rebuild_tag_index()?;
        // Everything committed since the seed, in commit order, through
        // the live apply path; the store already holds its triples.
        for commit in std::mem::take(&mut report.commits) {
            let delta = PlatformDelta::decode(&commit.meta)?;
            let emission = delta.emission.clone();
            platform.apply(delta)?;
            if let Some(provenance) = &emission {
                platform.emit(provenance, commit.delta.as_ref());
            }
        }
        platform.store.hold_compaction(platform.outbox.lag() > 0);
        Ok((platform, report))
    }

    /// Forwards the current observability bundle's metrics registry to
    /// the layers that record their own histograms (annotator + broker,
    /// durability engine), and the platform's semantic-resolution
    /// cache to the broker.
    fn wire_observability(&mut self) {
        self.annotator.set_observability(self.obs.metrics().clone());
        self.annotator
            .set_semantic_cache(self.semantic_cache.clone());
        self.store.set_observability(self.obs.metrics().clone());
        self.live.set_observability(&self.obs);
    }

    /// The observability bundle: metrics registry, tracer, slow-query
    /// and access logs. Clone handles out of it to wire external
    /// components (e.g. [`crate::federation::Federation`]) into the
    /// same `/metrics` exposition.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Replaces the observability bundle (tests install one backed by
    /// a `VirtualClock` for deterministic traces) and re-wires the
    /// annotator and durability engine onto it.
    pub fn set_observability(&mut self, obs: Obs) {
        self.obs = obs;
        self.wire_observability();
    }

    /// Rebuilds the triple-tag baseline index from relational state:
    /// plain keywords plus context tags for every picture.
    fn rebuild_tag_index(&mut self) -> Result<(), PlatformError> {
        let mut index = TagIndex::new();
        let pictures = self.db.table(cpg::PICTURES)?;
        for (pid, row) in pictures.scan() {
            let (owner, gps) = picture_owner_and_gps(row);
            let ts = row[5].as_int().unwrap_or(0);
            let snapshot = self.context.contextualize(owner, ts, gps);
            index_picture(&mut index, pid, row, tags_for(&snapshot));
        }
        self.tags = index;
        Ok(())
    }

    /// **The one apply path** for what a commit changes outside the
    /// triple store: inserts its rows (a duplicate key fails here,
    /// before any store write), indexes a new picture's keywords and
    /// context tags, moves its owner's last-seen position, and records
    /// the annotation result. The live commit runs it ahead of the
    /// commit's store write; recovery runs it over every recovered
    /// commit's delta, with no store write at all.
    fn apply(&mut self, delta: PlatformDelta) -> Result<(), PlatformError> {
        let mut context_tags = delta
            .context_tags
            .iter()
            .map(|wire| TripleTag::parse(wire))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| PlatformError::Invalid(format!("context tag: {e}")))?;
        for (table, row) in delta.rows {
            let key = self.db.insert(&table, row)?;
            if table != cpg::PICTURES {
                continue;
            }
            if let Some(row) = self.db.table(cpg::PICTURES)?.get(key) {
                index_picture(&mut self.tags, key, row, std::mem::take(&mut context_tags));
                if let (owner, Some(point)) = picture_owner_and_gps(row) {
                    self.context.buddies_mut().update_position(owner, point);
                }
            }
        }
        if let Some((pid, result)) = delta.annotation {
            self.annotations.insert(pid, result);
        }
        Ok(())
    }

    /// The one commit path behind [`Platform::commit_staged`],
    /// [`Platform::commit_legacy`] and [`Platform::rate`]: applies
    /// `delta`, then the store delta `semanticize` derives from the
    /// applied rows — the two together as **one WAL record** — then
    /// patches live albums and feeds the emission outbox. Returns the
    /// store delta narrowed to what changed. Under a `root` span the
    /// stages are traced as `upload.relational`, `upload.semanticize`
    /// (store delta and its commit) and `upload.record` (live albums
    /// and outbox). An `Err` from the WAL flush comes back after the
    /// in-memory bookkeeping: the commit is applied, not yet
    /// acknowledged.
    fn commit(
        &mut self,
        mut delta: PlatformDelta,
        semanticize: impl FnOnce(&Platform) -> Result<Delta, PlatformError>,
        root: Option<&Span>,
    ) -> Result<Delta, PlatformError> {
        let trace = root.and_then(Span::context);
        if self.outbox.origin().is_some() {
            delta.emission = Some(Provenance {
                epoch: self.store.store().epoch(),
                album: None,
                trace,
            });
        }
        let meta = delta.encode();
        let emission = delta.emission.clone();
        let span = root.map(|r| r.child("upload.relational"));
        self.apply(delta)?;
        drop(span);

        let span = root.map(|r| r.child("upload.semanticize"));
        let mut changed = semanticize(self)?;
        if emission.is_some() {
            // This commit's emission starts undrained: keep its record
            // in the WAL tail even if the commit's own flush compacts.
            self.store.hold_compaction(true);
        }
        let durable = self.store.commit(&mut changed, &meta);
        drop(span);

        let span = root.map(|r| r.child("upload.record"));
        if !self.live.engine_mut().is_empty() {
            let added: Vec<Triple> = changed.inserts.iter().map(|(t, _)| t.clone()).collect();
            self.live
                .on_commit(self.store.store(), &added, &changed.removes, trace);
        }
        if let Some(provenance) = &emission {
            self.emit(provenance, Some(&changed));
            self.obs.metrics().incr("replication.emissions");
        }
        drop(span);
        durable?;
        Ok(changed)
    }

    /// Records a commit's emission in the outbox — queued when its
    /// store delta is at hand (a live commit, or one recovered from the
    /// WAL tail), a spent sequence number otherwise.
    fn emit(&mut self, provenance: &Provenance, delta: Option<&Delta>) {
        let store = self.store.store();
        let body = delta.map(|delta| {
            let additions = delta.inserts.iter().map(|(triple, graph)| EmissionQuad {
                triple: triple.clone(),
                graph: store.graph_name(*graph).map(str::to_string),
            });
            (additions.collect(), delta.removes.clone())
        });
        let changed = delta.map_or(0, |d| d.inserts.len() + d.removes.len()) as u64;
        self.outbox.record(
            provenance.epoch + changed,
            provenance.album.as_deref(),
            body,
            provenance.trace,
        );
    }

    /// The picture resource IRI for a pid.
    pub fn picture_iri(pid: i64) -> Iri {
        ns::TL_PID.iri(&pid.to_string())
    }

    /// The user resource IRI for a user id.
    pub fn user_iri(user_id: i64) -> Iri {
        ns::TL_UID.iri(&user_id.to_string())
    }

    /// Installs a scripted fault plan judged on every upload under
    /// target `platform.upload` (chaos tests, deferred-queue drills).
    /// The plan is also forwarded to the durability engine, which
    /// honors the `wal.flush` and `snapshot.write` targets.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.store.set_fault_plan(plan.clone());
        self.fault_plan = Some(plan);
    }

    /// Removes the installed fault plan.
    pub fn clear_fault_plan(&mut self) {
        self.store.clear_fault_plan();
        self.fault_plan = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Processes one upload end-to-end through the prepare/commit
    /// split: validation and context analysis
    /// ([`Platform::stage_upload`]), read-only semantic annotation
    /// ([`Platform::annotate_staged`]), then the short commit stage
    /// ([`Platform::commit_staged`]) that alone mutates the relational
    /// base and the store.
    ///
    /// The whole pipeline runs under an `upload` trace with one child
    /// span per stage (`upload.context`, `upload.annotate`,
    /// `upload.relational`, `upload.semanticize`, `upload.record`);
    /// span durations feed same-named histograms in the metrics
    /// registry. Batched ingest ([`crate::ingest::IngestPool`]) runs
    /// the same three stages, annotating many uploads concurrently.
    pub fn upload(&mut self, upload: Upload) -> Result<UploadReceipt, PlatformError> {
        let root = self.obs.tracer().start("upload");
        let result = self.upload_staged(upload, &root);
        root.finish();
        match &result {
            Ok(_) => self.obs.metrics().incr("upload.accepted"),
            Err(_) => self.obs.metrics().incr("upload.errors"),
        }
        result
    }

    fn upload_staged(
        &mut self,
        upload: Upload,
        root: &lodify_obs::Span,
    ) -> Result<UploadReceipt, PlatformError> {
        let context_span = root.child("upload.context");
        let staged = self.stage_upload(upload);
        context_span.finish();
        let staged = staged?;

        let annotate = root.child("upload.annotate");
        let result = self.annotate_staged(&staged);
        annotate.finish();

        self.commit_staged(staged, result, Some(root))
    }

    /// **Prepare stage.** Validates the upload, updates the uploader's
    /// last-seen position and derives the context snapshot and triple
    /// tags (§1.1). No store write happens here; the returned
    /// [`StagedUpload`] carries everything the read-only annotation
    /// stage and the commit stage need.
    pub fn stage_upload(&mut self, upload: Upload) -> Result<StagedUpload, PlatformError> {
        if let Some(plan) = &self.fault_plan {
            plan.check("platform.upload")
                .map_err(|e| PlatformError::Unavailable(e.to_string()))?;
        }
        if upload.title.trim().is_empty() && upload.tags.is_empty() {
            return Err(PlatformError::Invalid(
                "upload needs a title or tags".into(),
            ));
        }
        let users = self.db.table(cpg::USERS)?;
        if users.get(upload.user_id).is_none() {
            return Err(PlatformError::NotFound(format!("user {}", upload.user_id)));
        }
        // The user's first album hosts ad-hoc uploads.
        let albums = self.db.table(cpg::ALBUMS)?;
        let aid = albums
            .select(|row| row[1].as_int() == Some(upload.user_id))
            .map(|(aid, _)| aid)
            .next()
            .ok_or_else(|| PlatformError::NotFound(format!("album for user {}", upload.user_id)))?;

        // Context analysis — including the buddy model's last-seen
        // position, which is why staging is sequential (in capture
        // order) even when annotation then runs concurrently.
        if let Some(point) = upload.gps {
            self.context
                .buddies_mut()
                .update_position(upload.user_id as u64, point);
        }
        let snapshot = self
            .context
            .contextualize(upload.user_id as u64, upload.ts, upload.gps);
        let context_tags = tags_for(&snapshot);
        let poi_input = upload
            .poi
            .as_ref()
            .map(|(name, category, point)| PoiRefInput {
                name: name.clone(),
                category: category.clone(),
                point: *point,
            });
        Ok(StagedUpload {
            upload,
            aid,
            snapshot,
            context_tags,
            poi_input,
        })
    }

    /// **Annotation stage.** Runs the full semantic-annotation
    /// pipeline (§2.2) for a staged upload against the current store
    /// snapshot. Takes `&self` and only reads — safe to fan out
    /// across threads for a batch of staged uploads.
    pub fn annotate_staged(&self, staged: &StagedUpload) -> AnnotationResult {
        self.annotator
            .annotate(self.store.store(), &staged.content_input())
    }

    /// **Commit stage.** The only stage that takes exclusive access:
    /// takes the next pid from the picture rows, inserts the relational
    /// rows, semanticizes them into the UGC graph (§2.1), indexes the
    /// tags and records the annotation result — all of it one commit,
    /// one WAL record. Store writes are ordered exactly as the serial
    /// path always ordered them (POI triples, picture triples,
    /// annotation triples), so batched and sequential ingest journal
    /// the same records.
    pub fn commit_staged(
        &mut self,
        staged: StagedUpload,
        result: AnnotationResult,
        root: Option<&lodify_obs::Span>,
    ) -> Result<UploadReceipt, PlatformError> {
        let StagedUpload {
            upload,
            aid,
            snapshot: _,
            context_tags,
            poi_input: _,
        } = staged;

        let pid = self.db.table(cpg::PICTURES)?.next_key();
        let (lon, lat) = match upload.gps {
            Some(p) => (SqlValue::Real(p.lon), SqlValue::Real(p.lat)),
            None => (SqlValue::Null, SqlValue::Null),
        };
        let picture = vec![
            pid.into(),
            aid.into(),
            upload.user_id.into(),
            upload.title.clone().into(),
            upload.tags.join(" ").into(),
            upload.ts.into(),
            lon,
            lat,
            format!("media/{pid}.jpg").into(),
        ];
        let mut rows = vec![(cpg::PICTURES.to_string(), picture)];
        let mut poi_ref_id = None;
        if let Some((name, category, point)) = &upload.poi {
            let ref_id = self.db.table(cpg::POI_REFS)?.next_key();
            let poi_ref = vec![
                ref_id.into(),
                pid.into(),
                name.clone().into(),
                category.clone().into(),
                SqlValue::Real(point.lon),
                SqlValue::Real(point.lat),
            ];
            rows.push((cpg::POI_REFS.to_string(), poi_ref));
            poi_ref_id = Some(ref_id);
        }
        let auto_annotations = result.terms.iter().filter(|t| t.resource.is_some()).count();
        let annotation = Self::annotation_triples(pid, &result);
        let delta = PlatformDelta {
            rows,
            annotation: Some((pid, result)),
            context_tags: context_tags.iter().map(TripleTag::to_wire).collect(),
            emission: None,
        };

        // Incremental semanticization of the new rows (§2.1). The POI
        // triples are left out of the receipt's count.
        let mut poi_triples = Vec::new();
        let changed = self.commit(
            delta,
            |p| {
                if let Some(ref_id) = poi_ref_id {
                    poi_triples = dump::dump_resource(&p.db, &p.mapping, cpg::POI_REFS, ref_id)?;
                }
                let picture = dump::dump_resource(&p.db, &p.mapping, cpg::PICTURES, pid)?;
                let triples = poi_triples.iter().cloned().chain(picture).chain(annotation);
                Ok(p.ugc_delta(triples, Vec::new()))
            },
            root,
        )?;
        let triples_added = changed
            .inserts
            .iter()
            .filter(|(triple, _)| !poi_triples.contains(triple))
            .count();

        Ok(UploadReceipt {
            pid,
            resource: Self::picture_iri(pid),
            triples_added,
            context_tags: context_tags.len(),
            auto_annotations,
        })
    }

    /// A store delta inserting `triples` into the UGC graph and
    /// removing `removes`.
    fn ugc_delta(&self, triples: impl IntoIterator<Item = Triple>, removes: Vec<Triple>) -> Delta {
        let inserts = triples.into_iter().map(|t| (t, self.ugc_graph)).collect();
        Delta { inserts, removes }
    }

    /// The store triples an annotation result contributes for `pid`.
    fn annotation_triples(pid: i64, result: &AnnotationResult) -> Vec<Triple> {
        let subject = Term::Iri(Self::picture_iri(pid));
        let mut triples = Vec::new();
        if let Some(city) = &result.location {
            triples.push(Triple::new_unchecked(
                subject.clone(),
                located_in_pred(),
                Term::Iri(city.clone()),
            ));
        }
        for buddy in &result.buddies {
            triples.push(Triple::new_unchecked(
                subject.clone(),
                with_buddy_pred(),
                Term::Iri(buddy.clone()),
            ));
        }
        if let Some(poi) = &result.poi {
            triples.push(Triple::new_unchecked(
                subject.clone(),
                subject_pred(),
                Term::Iri(poi.clone()),
            ));
        }
        for term in &result.terms {
            if let Some(resource) = &term.resource {
                triples.push(Triple::new_unchecked(
                    subject.clone(),
                    subject_pred(),
                    Term::Iri(resource.clone()),
                ));
            }
        }
        triples
    }

    /// Annotates one legacy picture (used by the batch job). Returns
    /// the number of term annotations that fired. Equivalent to
    /// [`Platform::stage_legacy`], [`Platform::annotate_legacy_staged`],
    /// and [`Platform::commit_legacy`], which the batched path runs
    /// with the annotation stage fanned out across workers.
    pub fn annotate_legacy(&mut self, pid: i64) -> Result<usize, PlatformError> {
        let staged = self.stage_legacy(pid)?;
        let result = self.annotate_legacy_staged(&staged);
        self.commit_legacy(pid, result)
    }

    /// **Prepare stage** of legacy batch annotation: extracts the
    /// picture's title, tags, context snapshot and POI reference from
    /// relational state. Read-only.
    pub fn stage_legacy(&self, pid: i64) -> Result<StagedLegacy, PlatformError> {
        let pictures = self.db.table(cpg::PICTURES)?;
        let row = pictures
            .get(pid)
            .ok_or_else(|| PlatformError::NotFound(format!("picture {pid}")))?;
        let title = row[3].as_text().unwrap_or_default().to_string();
        let tags: Vec<String> = row[4]
            .as_text()
            .unwrap_or_default()
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let owner = row[2].as_int().unwrap_or(0) as u64;
        let ts = row[5].as_int().unwrap_or(0);
        let gps = match (row[6].as_real(), row[7].as_real()) {
            (Some(lon), Some(lat)) => Point::new(lon, lat).ok(),
            _ => None,
        };
        // Explicit POI reference, if the user attached one.
        let poi_refs = self.db.table(cpg::POI_REFS)?;
        let poi_input = poi_refs
            .select(|r| r[1].as_int() == Some(pid))
            .next()
            .and_then(|(_, r)| {
                Some(PoiRefInput {
                    name: r[2].as_text()?.to_string(),
                    category: r[3].as_text()?.to_string(),
                    point: Point::new(r[4].as_real()?, r[5].as_real()?).ok()?,
                })
            });
        let snapshot = gps.map(|p| self.context.contextualize(owner, ts, Some(p)));
        Ok(StagedLegacy {
            pid,
            title,
            tags,
            snapshot,
            poi_input,
        })
    }

    /// **Annotation stage** of legacy batch annotation: read-only, so
    /// a batch of staged pictures can be annotated concurrently.
    pub fn annotate_legacy_staged(&self, staged: &StagedLegacy) -> AnnotationResult {
        self.annotator
            .annotate(self.store.store(), &staged.content_input())
    }

    /// **Commit stage** of legacy batch annotation: records the
    /// annotation triples into the UGC graph and stores the result, as
    /// one commit. Returns the number of term annotations that fired.
    pub fn commit_legacy(
        &mut self,
        pid: i64,
        result: AnnotationResult,
    ) -> Result<usize, PlatformError> {
        let fired = result.terms.iter().filter(|t| t.resource.is_some()).count();
        let triples = Self::annotation_triples(pid, &result);
        let delta = PlatformDelta {
            annotation: Some((pid, result)),
            ..PlatformDelta::default()
        };
        self.commit(delta, |p| Ok(p.ugc_delta(triples, Vec::new())), None)?;
        Ok(fired)
    }

    /// Records a vote and refreshes the picture's `rev:rating` — the
    /// old value removed, the new one inserted — as one commit.
    pub fn rate(&mut self, pid: i64, user_id: i64, rating: i64) -> Result<(), PlatformError> {
        if !(1..=5).contains(&rating) {
            return Err(PlatformError::Invalid(format!(
                "rating {rating} out of 1..=5"
            )));
        }
        let vote_id = self.db.table(cpg::VOTES)?.next_key();
        let vote = vec![vote_id.into(), pid.into(), user_id.into(), rating.into()];
        let delta = PlatformDelta {
            rows: vec![(cpg::VOTES.to_string(), vote)],
            ..PlatformDelta::default()
        };
        self.commit(
            delta,
            |p| {
                let agg = &p.mapping.aggregate_maps[0];
                let subject = Term::Iri(Self::picture_iri(pid));
                let old = p
                    .store
                    .store()
                    .match_terms(Some(&subject), Some(&agg.predicate), None);
                let new = dump::aggregate_for(&p.db, &p.mapping, agg, pid)?;
                Ok(p.ugc_delta(new, old))
            },
            None,
        )?;
        Ok(())
    }

    /// All picture ids, in order.
    pub fn picture_ids(&self) -> Vec<i64> {
        self.db
            .table(cpg::PICTURES)
            .map(|t| t.scan().map(|(pid, _)| pid).collect())
            .unwrap_or_default()
    }

    /// The semantic store (LOD + semanticized UGC + annotations).
    pub fn store(&self) -> &Store {
        self.store.store()
    }

    /// Pins the current store state as an immutable
    /// [`StoreSnapshot`]: O(shards) to take, safe to hold across
    /// broker calls, I/O and threads, and guaranteed never to observe
    /// a half-commit. This is what the ingest pool's annotation
    /// workers and any long-running reader should use instead of
    /// borrowing [`Platform::store`] across slow calls.
    pub fn store_snapshot(&self) -> StoreSnapshot {
        self.store.store().snapshot()
    }

    /// Durability counters, when the store is journal-backed
    /// (`None` for ephemeral platforms).
    pub fn durability(&self) -> Option<DurabilityStats> {
        self.store.stats()
    }

    /// Forces the WAL durability barrier — every commit so far is
    /// acknowledged once this returns `Ok` — and compacts once the WAL
    /// reaches the snapshot threshold. No-op for ephemeral platforms.
    pub fn flush_store(&mut self) -> Result<(), PlatformError> {
        Ok(self.store.flush()?)
    }

    /// Forces log compaction into a fresh snapshot generation. No-op
    /// for ephemeral platforms, and while the emission outbox holds
    /// undrained emissions (their commits must stay in the WAL tail).
    pub fn snapshot_store(&mut self) -> Result<(), PlatformError> {
        Ok(self.store.snapshot()?)
    }

    /// The relational database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The triple-tag baseline index.
    pub fn tags(&self) -> &TagIndex {
        &self.tags
    }

    /// The context platform.
    pub fn context(&self) -> &ContextPlatform {
        &self.context
    }

    /// Mutable context platform (tests set up buddies/calendars).
    pub fn context_mut(&mut self) -> &mut ContextPlatform {
        &mut self.context
    }

    /// Replaces the annotator (ablations and fault-injection tests).
    /// The replacement inherits the platform's metrics registry and
    /// semantic-resolution cache.
    pub fn set_annotator(&mut self, annotator: Annotator) {
        self.annotator = annotator;
        self.annotator.set_observability(self.obs.metrics().clone());
        self.annotator
            .set_semantic_cache(self.semantic_cache.clone());
    }

    /// The annotator (read-only; the ingest pool shares it across
    /// prepare-stage workers).
    pub(crate) fn annotator(&self) -> &Annotator {
        &self.annotator
    }

    /// Swaps the durability engine's group-commit policy for the
    /// batched-ingest commit stage; returns the prior policy to hand
    /// back to [`Platform::restore_group_commit`]. `None` when the
    /// store is ephemeral (nothing to restore).
    pub(crate) fn swap_group_commit(
        &mut self,
        policy: GroupCommitPolicy,
    ) -> Option<GroupCommitPolicy> {
        let prior = self.store.group_commit();
        self.store.set_group_commit(policy);
        prior
    }

    /// Restores a group-commit policy swapped out by
    /// [`Platform::swap_group_commit`] and runs the durability barrier,
    /// so a batch is exactly as durable at its end as the same
    /// mutations issued one by one.
    pub(crate) fn restore_group_commit(
        &mut self,
        prior: Option<GroupCommitPolicy>,
    ) -> Result<(), PlatformError> {
        if let Some(prior) = prior {
            self.store.set_group_commit(prior);
            self.store.flush()?;
        }
        Ok(())
    }

    /// Workload ground truth (experiment scoring).
    pub fn truth(&self) -> &[PictureTruth] {
        &self.truth
    }

    /// Annotation results recorded so far, by pid.
    pub fn annotations(&self) -> &BTreeMap<i64, AnnotationResult> {
        &self.annotations
    }

    /// Runs a SPARQL query against the platform store.
    ///
    /// Execution is traced (`sparql` root span, `sparql.parse` /
    /// `sparql.plan` / `sparql.eval` children) and goes through the
    /// fingerprint-keyed [`lodify_sparql::PlanCache`]: a full hit skips
    /// parse *and* plan, a plan-only hit (same fingerprint, different
    /// literals) reparses but reuses the cached join order, and a miss
    /// compiles a fresh cost-based [`lodify_sparql::Plan`] calibrated
    /// by the cardinality registry and caches it. After every planned
    /// execution the worst estimated-vs-actual operator drift is fed
    /// back; past the cache's threshold the entry is invalidated so the
    /// next request replans against current statistics.
    ///
    /// Executions crossing the slow-query threshold are aggregated in
    /// the slow-query log under the query's normalized fingerprint,
    /// together with the evaluator's per-operator
    /// [`lodify_sparql::EvalProfile`] breakdown, plan-cache outcome
    /// (`hit` / `miss`) and plan id of the worst run. Every profiled
    /// execution also feeds the per-predicate
    /// [`lodify_sparql::CardinalityProfile`] registry
    /// ([`Self::cardinality`]), and the `sparql.query` histogram tags
    /// its bucket with the query's trace id as an exemplar.
    pub fn query(&self, sparql: &str) -> Result<lodify_sparql::QueryResults, PlatformError> {
        let started = self.obs.metrics().now_micros();
        let root = self.obs.tracer().start("sparql");

        let fingerprint = lodify_sparql::fingerprint(sparql);
        let lookup = self.plan_cache.lookup(&fingerprint, sparql);
        let outcome = match &lookup {
            lodify_sparql::PlanLookup::Miss => "miss",
            _ => "hit",
        };
        self.obs.metrics().incr(match outcome {
            "hit" => "sparql.plan.hits",
            _ => "sparql.plan.misses",
        });

        let (cached_query, cached_plan) = match lookup {
            lodify_sparql::PlanLookup::Hit { query, plan } => (Some(query), Some(plan)),
            lodify_sparql::PlanLookup::PlanOnly { plan } => (None, Some(plan)),
            lodify_sparql::PlanLookup::Miss => (None, None),
        };
        let parsed = match cached_query {
            Some(query) => query,
            None => {
                let parse_span = root.child("sparql.parse");
                let parsed = lodify_sparql::parse(sparql);
                parse_span.finish();
                match parsed {
                    Ok(parsed) => Arc::new(parsed),
                    Err(e) => {
                        self.obs.metrics().incr("sparql.parse.errors");
                        root.finish();
                        return Err(e.into());
                    }
                }
            }
        };
        let plan = match cached_plan {
            Some(plan) => plan,
            None => {
                let plan_span = root.child("sparql.plan");
                let plan = Arc::new(lodify_sparql::plan_query(
                    self.store.store(),
                    &parsed,
                    Some(&self.cardinality),
                ));
                plan_span.finish();
                self.plan_cache.insert(
                    &fingerprint,
                    sparql,
                    Arc::clone(&parsed),
                    Arc::clone(&plan),
                );
                plan
            }
        };

        let eval_span = root.child("sparql.eval");
        let evaluated = lodify_sparql::evaluate_planned(
            self.store.store(),
            &parsed,
            lodify_sparql::EvalOptions::default(),
            &plan,
        );
        eval_span.finish();
        let trace_id = root.context().map(|c| c.trace_id).unwrap_or(0);
        root.finish();
        let (results, report) = match evaluated {
            Ok(pair) => pair,
            Err(e) => {
                self.obs.metrics().incr("sparql.eval.errors");
                return Err(e.into());
            }
        };
        let metrics = self.obs.metrics();
        metrics.incr("sparql.queries");
        self.cardinality.absorb(&report.profile);
        // Drift only invalidates once the store has moved past the
        // plan's epoch: same-epoch drift is cost-model error a replan
        // against identical statistics would reproduce (the cache
        // would thrash, every request a miss), while stale-epoch
        // drift means the data shifted under the plan and replanning
        // can actually pick a better order.
        if plan.epoch() != self.store.store().epoch()
            && self.plan_cache.note_drift(&fingerprint, report.plan_drift)
        {
            metrics.incr("sparql.plan.invalidations");
        }
        let elapsed_us = metrics.now_micros().saturating_sub(started);
        metrics.observe_with_exemplar("sparql.query", elapsed_us, trace_id);
        if elapsed_us >= self.obs.slow_queries().threshold_us() {
            self.obs.slow_queries().record_annotated(
                &fingerprint,
                sparql,
                elapsed_us,
                &report.profile.render_lines(),
                Some(outcome),
                Some(plan.id()),
            );
            metrics.incr("sparql.slow");
        }
        Ok(results)
    }

    /// The per-predicate cardinality registry fed by every profiled
    /// query: mean actual vs. estimated rows per constant predicate,
    /// sorted by how badly the optimizer misestimates it. Seed
    /// statistics for cost-based planning (ROADMAP item 5).
    pub fn cardinality(&self) -> &lodify_sparql::CardinalityProfile {
        &self.cardinality
    }

    /// The compiled-plan cache (counters, drift threshold).
    pub fn plan_cache(&self) -> &lodify_sparql::PlanCache {
        &self.plan_cache
    }

    /// Plan-cache counter snapshot (for [`crate::metrics`]).
    pub fn plan_cache_stats(&self) -> lodify_sparql::PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Switches admission control on: from now on the web layer
    /// consults a per-tenant token-bucket + queue-depth shedding
    /// [`crate::admission::AdmissionController`] before routing, and
    /// the `/ops` verdict degrades while the controller sheds. The
    /// controller reads the platform's obs clock, so virtual-time
    /// chaos tests drive refill and recovery deterministically.
    pub fn enable_admission(&mut self, config: crate::admission::AdmissionConfig) {
        self.admission = Some(crate::admission::AdmissionController::new(
            Arc::clone(self.obs.clock()),
            config,
        ));
    }

    /// The admission controller, when [`Platform::enable_admission`]
    /// ran.
    pub fn admission(&self) -> Option<&crate::admission::AdmissionController> {
        self.admission.as_ref()
    }

    /// Serves a virtual album from the standing-query engine: the
    /// first view of a spec solves and registers it, every later view
    /// reads the links the engine maintains across commits (see
    /// [`LiveService::view`]). A spec with a radius outside
    /// `(0, MAX_RADIUS_KM]` or a malformed language tag is
    /// [`PlatformError::Invalid`].
    pub fn view_album(&self, spec: &AlbumSpec) -> Result<Vec<String>, PlatformError> {
        let span = self.obs.tracer().start("album.view");
        let links = self.live.view(self.store.store(), spec);
        span.finish();
        links
    }

    /// The album cache: the live service, whose engine materialises
    /// every viewed album (counters, manual clear).
    pub fn album_cache(&self) -> &LiveService {
        &self.live
    }

    /// Album-cache counter snapshot (for [`crate::metrics`]).
    pub fn album_cache_stats(&self) -> AlbumCacheStats {
        self.live.cache_stats()
    }

    /// The semantic-resolution cache shared with the broker (counters,
    /// manual clear).
    pub fn semantic_cache(&self) -> &SemanticCache {
        &self.semantic_cache
    }

    /// Semantic-cache counter snapshot (for [`crate::metrics`]).
    pub fn semantic_cache_stats(&self) -> SemanticCacheStats {
        self.semantic_cache.stats()
    }

    /// Collects the platform-local operational snapshot: broker and
    /// breaker state, durability counters, album-cache and
    /// semantic-cache counters. Callers holding a re-annotation queue
    /// or a federation wire those in via
    /// [`crate::metrics::OpsSnapshot::collect`] directly.
    pub fn ops_snapshot(&self) -> crate::metrics::OpsSnapshot {
        let live = self.live.ops();
        crate::metrics::OpsSnapshot::collect(
            self.annotator.broker(),
            crate::metrics::OpsSources {
                replication: self.outbox().map(|o| crate::metrics::ReplicationOps {
                    lag: o.lag(),
                    emissions: o.len() as u64,
                    ..Default::default()
                }),
                durability: self.durability(),
                album_cache: Some(self.album_cache_stats()),
                semantic_cache: Some(self.semantic_cache_stats()),
                live: (live.albums > 0 || !self.live.hub().is_empty()).then_some(live),
                plan_cache: Some(self.plan_cache_stats()),
                admission: self.admission.as_ref().map(|a| a.ops()),
                ..Default::default()
            },
        )
    }

    /// Registers a standing live-album query, pinned: from now on every
    /// commit maintains its materialized answer differentially, views
    /// of the same spec read it, and clearing the album cache keeps it.
    pub fn live_register(&mut self, spec: &AlbumSpec) -> LiveAlbumId {
        self.live.register(self.store.store(), spec)
    }

    /// Subscribes a callback to a registered live album's diff stream
    /// (SparqlPuSH). Deliveries are at-least-once; the subscriber's
    /// idempotent apply absorbs duplicates.
    pub fn live_subscribe(&mut self, callback: &str, album: LiveAlbumId) -> SubscriberId {
        self.live.subscribe(callback, album)
    }

    /// The live-album service (engine + push hub).
    pub fn live(&self) -> &LiveService {
        &self.live
    }

    /// Mutable live-album service (fault plans, chaos controls,
    /// manual pumps and dead-letter redelivery).
    pub fn live_mut(&mut self) -> &mut LiveService {
        &mut self.live
    }

    /// Rebuilds all standing-query state from the (recovered) store
    /// — the crash-recovery counterpart to WAL replay for the live
    /// subsystem, and with it for the album cache.
    pub fn live_rebuild(&mut self) {
        self.live.rebuild(self.store.store());
    }

    /// Switches the platform into emission-producing mode: from now on
    /// every commit — [`Platform::commit_staged`], [`Platform::rate`],
    /// [`Platform::commit_legacy`] — records its store delta as an
    /// [`Emission`] from `origin`. The provenance rides in the commit's
    /// WAL record, so on a recovered platform the sequence resumes
    /// where the crashed process left off and the commits still in the
    /// WAL tail are re-offered; returns how many were.
    pub fn enable_emissions(&mut self, origin: Acct) -> usize {
        self.outbox.enable(origin)
    }

    /// The emission outbox, when [`Platform::enable_emissions`] ran.
    pub fn outbox(&self) -> Option<&EmissionOutbox> {
        self.outbox.origin().map(|_| &self.outbox)
    }

    /// Hands every undrained emission to a replication agent, and lets
    /// compaction proceed again. The drain position is in-memory
    /// consumer state: after a restart the WAL tail is re-offered and
    /// downstream idempotent apply absorbs the overlap.
    pub fn drain_emissions(&mut self) -> Vec<Emission> {
        if self.outbox.origin().is_none() {
            return Vec::new();
        }
        self.store.hold_compaction(false);
        self.outbox.drain()
    }

    /// Refreshes registry gauges from current platform state (store
    /// size, WAL depth, album-cache entries, semantic-cache state).
    /// Called by the web layer before rendering `/metrics` so
    /// point-in-time values are current without per-mutation
    /// bookkeeping.
    pub fn publish_gauges(&self) {
        let metrics = self.obs.metrics();
        metrics.set_gauge("store.triples", self.store.store().len() as u64);
        let cache = self.album_cache_stats();
        metrics.set_gauge("album.cache.entries", cache.entries as u64);
        let semantic = self.semantic_cache_stats();
        metrics.set_gauge("semantic.cache.entries", semantic.entries as u64);
        metrics.set_gauge(
            "semantic.cache.hit.ratio.permille",
            (semantic.hit_ratio() * 1000.0) as u64,
        );
        if let Some(stats) = self.durability() {
            metrics.set_gauge("wal.pending", stats.wal_pending as u64);
            metrics.set_gauge("wal.records", stats.wal_records);
            metrics.set_gauge("wal.generation", stats.generation);
        }
        if let Some(outbox) = self.outbox() {
            metrics.set_gauge("replication.outbox.lag", outbox.lag());
        }
        let live = self.live.ops();
        if live.albums > 0 {
            metrics.set_gauge("live.albums", live.albums as u64);
            metrics.set_gauge("live.push.subscribers", live.push.subscribers as u64);
            metrics.set_gauge("live.push.lag", live.push.lag);
            metrics.set_gauge("live.push.dlq.depth", live.push.dlq_depth as u64);
        }
        let plan = self.plan_cache_stats();
        metrics.set_gauge("sparql.plan.entries", plan.entries as u64);
        if let Some(admission) = &self.admission {
            let ops = admission.ops();
            metrics.set_gauge("admission.queue.depth", ops.queue_depth as u64);
            metrics.set_gauge("admission.tenants", ops.tenants as u64);
        }
        metrics.set_gauge("store.epoch", self.store.store().epoch());
        metrics.set_gauge("store.shards", self.store.store().shard_count() as u64);
    }
}

/// A picture row's owner and GPS position.
fn picture_owner_and_gps(row: &[SqlValue]) -> (u64, Option<Point>) {
    let owner = row[2].as_int().unwrap_or(0) as u64;
    let gps = match (row[6].as_real(), row[7].as_real()) {
        (Some(lon), Some(lat)) => Point::new(lon, lat).ok(),
        _ => None,
    };
    (owner, gps)
}

/// Indexes a picture row's plain keywords and its context tags.
fn index_picture(
    index: &mut TagIndex,
    pid: i64,
    row: &[SqlValue],
    context_tags: impl IntoIterator<Item = TripleTag>,
) {
    for keyword in row[4].as_text().unwrap_or_default().split_whitespace() {
        index.insert(pid, Tag::Plain(keyword.to_string()));
    }
    for tag in context_tags {
        index.insert(pid, Tag::Triple(tag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_context::Gazetteer;

    fn small_platform() -> Platform {
        Platform::bootstrap(WorkloadConfig::small(42)).expect("bootstrap")
    }

    #[test]
    fn bootstrap_fuses_ugc_and_lod() {
        let p = small_platform();
        assert!(p.store().len() > 1000);
        // A picture resource exists with the paper's shape.
        let results = p
            .query("SELECT (COUNT(*) AS ?n) WHERE { ?r a sioct:MicroblogPost . }")
            .unwrap();
        assert_eq!(
            results.column("n")[0].lexical(),
            p.picture_ids().len().to_string()
        );
        // Tag index has both plain and context tags.
        assert!(!p.tags().by_namespace("address").is_empty());
        assert!(!p.tags().by_namespace("cell").is_empty());
    }

    #[test]
    fn upload_flows_end_to_end() {
        let mut p = small_platform();
        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap();
        let receipt = p
            .upload(Upload {
                user_id: 1,
                title: "Tramonto alla Mole Antonelliana".into(),
                tags: vec!["torino".into(), "tramonto".into()],
                ts: 1_320_500_000,
                gps: Some(mole.point(gaz)),
                poi: Some((
                    "Mole Antonelliana".into(),
                    "monument".into(),
                    mole.point(gaz),
                )),
            })
            .expect("upload");

        assert!(receipt.triples_added > 5);
        assert!(receipt.context_tags >= 5);
        assert!(receipt.auto_annotations >= 1);

        // The new picture is queryable with annotations.
        let q = format!(
            "SELECT ?s WHERE {{ <{}> <{}> ?s . }}",
            receipt.resource.as_str(),
            subject_pred().as_str()
        );
        let results = p.query(&q).unwrap();
        let subjects: Vec<&str> = results.column("s").iter().map(|t| t.lexical()).collect();
        assert!(
            subjects.contains(&"http://dbpedia.org/resource/Mole_Antonelliana"),
            "{subjects:?}"
        );
        // Located-in points at Geonames Turin.
        let q = format!(
            "SELECT ?c WHERE {{ <{}> <{}> ?c . }}",
            receipt.resource.as_str(),
            located_in_pred().as_str()
        );
        let results = p.query(&q).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results.column("c")[0]
            .lexical()
            .starts_with("http://sws.geonames.org/"));
        // Triple-tag index got the context tags.
        let cities = p.tags().by_predicate("address", "city");
        assert!(cities.contains(&receipt.pid));
    }

    #[test]
    fn upload_validation() {
        let mut p = small_platform();
        assert!(matches!(
            p.upload(Upload {
                user_id: 9999,
                title: "x".into(),
                tags: vec![],
                ts: 0,
                gps: None,
                poi: None,
            }),
            Err(PlatformError::NotFound(_))
        ));
        assert!(matches!(
            p.upload(Upload {
                user_id: 1,
                title: "  ".into(),
                tags: vec![],
                ts: 0,
                gps: None,
                poi: None,
            }),
            Err(PlatformError::Invalid(_))
        ));
    }

    #[test]
    fn rating_refreshes_rev_rating() {
        let mut p = small_platform();
        let pid = p.picture_ids()[0];
        p.rate(pid, 1, 5).unwrap();
        p.rate(pid, 2, 3).unwrap();
        let q = format!(
            "SELECT ?r WHERE {{ <{}> rev:rating ?r . }}",
            Platform::picture_iri(pid).as_str()
        );
        let results = p.query(&q).unwrap();
        assert_eq!(results.len(), 1, "exactly one rating triple");
        let value: f64 = results.column("r")[0].lexical().parse().unwrap();
        assert!((1.0..=5.0).contains(&value));
        assert!(matches!(p.rate(pid, 1, 9), Err(PlatformError::Invalid(_))));
    }

    #[test]
    fn view_album_caches_until_an_upload_invalidates() {
        let mut p = small_platform();
        let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3);
        let cold = p.view_album(&spec).unwrap();
        let warm = p.view_album(&spec).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, spec.execute(p.store()).unwrap());
        let stats = p.album_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // An upload semanticizes new picture triples (rdf:type,
        // comm:image-data, geo:geometry, …) — the album must notice.
        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap();
        let receipt = p
            .upload(Upload {
                user_id: 1,
                title: "Davanti alla Mole".into(),
                tags: vec!["torino".into()],
                ts: 7,
                gps: Some(mole.point(gaz)),
                poi: None,
            })
            .unwrap();
        let refreshed = p.view_album(&spec).unwrap();
        assert!(
            refreshed
                .iter()
                .any(|l| l.contains(&format!("media/{}.jpg", receipt.pid))),
            "the cached album refreshed to include the new upload"
        );
        assert_eq!(refreshed, spec.execute(p.store()).unwrap());
        let stats = p.album_cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (2, 1),
            "the commit patched the album, so the view after it is a hit"
        );
    }

    /// Views keep at most `VIEWED_ALBUMS_CAP` albums; one past the cap
    /// is still answered. `clear()` drops what views installed and
    /// keeps pinned albums, whose subscribers go on converging.
    #[test]
    fn viewed_albums_are_capped_and_clear_keeps_pinned_albums() {
        use crate::live::VIEWED_ALBUMS_CAP;

        let mut p = small_platform();
        let spec =
            |i: usize| AlbumSpec::near_monument("Mole Antonelliana", "it", 0.2 + i as f64 * 1e-4);
        for i in 0..VIEWED_ALBUMS_CAP {
            p.view_album(&spec(i)).unwrap();
        }
        let extra = spec(VIEWED_ALBUMS_CAP);
        assert_eq!(
            p.view_album(&extra).unwrap(),
            extra.execute(p.store()).unwrap()
        );
        let stats = p.album_cache_stats();
        assert_eq!(stats.entries, VIEWED_ALBUMS_CAP);
        assert_eq!(stats.misses, VIEWED_ALBUMS_CAP as u64 + 1);
        p.view_album(&extra).unwrap();
        assert_eq!(p.album_cache_stats().misses, VIEWED_ALBUMS_CAP as u64 + 2);

        let pinned = AlbumSpec::near_monument("Mole Antonelliana", "it", 0.5);
        let album = p.live_register(&pinned);
        let sub = p.live_subscribe("http://frame.local/push", album);
        p.album_cache().clear();
        assert_eq!(p.album_cache_stats().entries, 1);
        assert_eq!(
            p.live().engine().links(album),
            pinned.execute(p.store()).unwrap()
        );

        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap();
        let receipt = p
            .upload(Upload {
                user_id: 1,
                title: "Davanti alla Mole".into(),
                tags: vec!["torino".into()],
                ts: 7,
                gps: Some(mole.point(gaz)),
                poi: None,
            })
            .unwrap();
        let fresh = pinned.execute(p.store()).unwrap();
        assert!(fresh
            .iter()
            .any(|l| l.contains(&format!("media/{}.jpg", receipt.pid))));
        assert_eq!(p.live().engine().links(album), fresh);
        assert_eq!(p.live().hub().subscriber(sub).unwrap().links(), fresh);
        let hits = p.album_cache_stats().hits;
        assert_eq!(p.view_album(&pinned).unwrap(), fresh);
        assert_eq!(p.album_cache_stats().hits, hits + 1);
    }

    /// Every commit path emits once emissions are on: a rating retracts
    /// the old `rev:rating` and adds the new one, and a legacy
    /// annotation emits its annotation triples.
    #[test]
    fn every_commit_path_emits() {
        let mut p = small_platform();
        p.enable_emissions(Acct::parse("acct:oscar@node1.example").unwrap());
        let pid = p.picture_ids()[0];
        let subject = Term::Iri(Platform::picture_iri(pid));
        let rating = ns::REV.iri("rating");
        let rev_rating = |p: &Platform| p.store().match_terms(Some(&subject), Some(&rating), None);
        p.rate(pid, 1, 5).unwrap();
        let old = rev_rating(&p);
        p.rate(pid, 2, 1).unwrap();
        let new = rev_rating(&p);
        assert_ne!(old, new);

        let emissions = p.drain_emissions();
        assert_eq!(emissions.len(), 2, "one emission per rating");
        assert_eq!(emissions[1].removals, old);
        let added: Vec<Triple> = emissions[1]
            .additions
            .iter()
            .map(|q| q.triple.clone())
            .collect();
        assert_eq!(added, new);

        p.annotate_legacy(pid).unwrap();
        let legacy = p.drain_emissions();
        assert_eq!(legacy.len(), 1);
        assert_eq!(legacy[0].seq, 3);
    }

    #[test]
    fn legacy_annotation_records_results() {
        let mut p = small_platform();
        let pid = p.picture_ids()[0];
        assert!(p.annotations().is_empty());
        p.annotate_legacy(pid).unwrap();
        assert!(p.annotations().contains_key(&pid));
        assert!(matches!(
            p.annotate_legacy(99999),
            Err(PlatformError::NotFound(_))
        ));
    }
}
