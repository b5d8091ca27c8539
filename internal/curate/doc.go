// Package curate implements the self-curation pipeline — the paper's
// "gradual curation process that transforms the raw data into a new
// unified entity that has knowledge-like characteristics" (Section 1).
//
// One Ingest call runs the full layer stack for a source delivery, a chunk
// of records at a time:
//
//	decode           – each record becomes its instance-layer row;
//	instance layer   – the chunk lands in storage through the batch write
//	                   path (one latch acquisition, one multi-record log
//	                   frame); there is no DDL, the rows are the schema;
//	relation layer   – entities and edges enter the graph; literal
//	                   foreign references are resolved to entity edges via
//	                   link rules (online instance-level integration, with
//	                   unresolved references retried as later sources
//	                   arrive — "continuous online integration", §4.2);
//	                   incremental entity resolution merges duplicates
//	                   (FS.1); information extraction turns unstructured
//	                   text into mentions and confidence-weighted edges;
//	semantic layer   – the reasoner incrementally re-materializes inferred
//	                   types, existential witnesses, and inconsistencies.
//
// Only ER's candidate generation and pair scoring fan out, across the
// engine's worker count; everything that changes curation state runs in
// record order, because incremental ER merge decisions depend on arrival
// order. RebuildFromStore, which runs on every open and replica refresh,
// relates the stored records through the same stage, so a reopened store
// curates as the live one did.
//
// A pass is observable end to end: Ingest's trace argument receives
// per-stage spans (decode, batch install with WAL fsync wait,
// relation/ER, integration, incremental inference) under the request's obs
// trace, so the cost of curation — the part of the write path a
// conventional engine doesn't have — is first-class in the ops surface
// rather than folded into an opaque ingest latency.
//
// The package also provides the ranked materialization cache of FS.9
// ("context-aware materialization of ranked & discovered data").
package curate
