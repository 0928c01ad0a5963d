package main

// perLayer fills rep with the per-layer metrics. Counters and ratios
// come from the untraced pass u (the program as it runs in production);
// span timings come from the traced pass t.
func perLayer(rep *report, u, t *result, spans []span) {
	w := u.w
	uops, _ := u.ops()
	tops, _ := t.ops()
	ops := float64(uops)
	perOp := func(n int64) float64 { return ratio(float64(n), ops) }
	c := w.reg.Counter

	// Span timings, in microseconds.
	self := selfTimes(spans)
	var durs [numSpanNames][]int64
	var srvDur, srvSelf, devDur []int64
	var coreSelf int64
	for i, s := range spans {
		if s.end == 0 {
			continue // still open when the window closed
		}
		d := s.end - s.start
		durs[s.name] = append(durs[s.name], d)
		switch layerOf(s.name) {
		case "srv":
			srvDur = append(srvDur, d)
			srvSelf = append(srvSelf, self[i])
		case "core":
			coreSelf += self[i]
		case "disk":
			devDur = append(devDur, d)
		}
	}

	var rpcs int64
	for _, n := range u.rpcs {
		rpcs += n
	}
	rep.set("srv.rpcs_per_op", "count", perOp(rpcs))
	rep.set("srv.rpc_us", "us", quantile(srvDur, 0.5))
	rep.set("srv.rpc_self_us", "us", quantile(srvSelf, 0.5))
	rep.set("srv.qos_wait_us", "us", w.histMerge("srv.qos.wait.ns").Quantile(0.99)/1e3)
	rep.set("srv.server_us", "us", w.histMerge("srv.latency.ns").Quantile(0.5)/1e3)

	for _, k := range []struct {
		metric string
		span   int
	}{
		{"core.lookup_us", spanLookup}, {"core.walkpath_us", spanWalkPath},
		{"core.create_us", spanCreate}, {"core.readat_us", spanReadAt},
		{"core.writeat_us", spanWriteAt}, {"core.unlink_us", spanUnlink},
		{"core.stat_us", spanStat}, {"core.readdir_us", spanReadDir},
	} {
		rep.set(k.metric, "us", quantile(durs[k.span], 0.5))
	}
	rep.set("core.self_us_per_op", "us", ratio(float64(coreSelf)/1e3, float64(tops)))
	pcHits, pcMiss := c("core.pathcache.hits"), c("core.pathcache.misses")
	rep.set("core.pathcache.hit_ratio", "ratio", ratio(float64(pcHits), float64(pcHits+pcMiss)))
	rep.set("core.pathcache.evictions_per_op", "count", perOp(c("core.pathcache.evictions")))
	rep.set("core.dirindex.probes_per_op", "count", perOp(c("core.dirindex.probes")))
	emb, ext := c("core.inode.embedded_hits"), c("core.inode.external_reads")
	rep.set("core.inode.embedded_ratio", "ratio", ratio(float64(emb), float64(emb+ext)))
	rep.set("core.groupread.blocks_per_read", "blocks", ratio(float64(c("core.groupread.blocks")), float64(c("core.groupread.reads"))))

	cs := w.cache
	rep.set("cache.hit_ratio", "ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	rep.set("cache.evictions_per_op", "count", perOp(cs.Evictions))
	rep.set("cache.prefetch.used_ratio", "ratio", ratio(float64(c("cache.prefetch.used")), float64(c("cache.prefetch.loaded"))))
	rep.set("cache.writebacks_per_op", "blocks", perOp(cs.WriteBacks))

	rep.set("writeback.blocks_per_flush", "blocks", ratio(float64(c("writeback.blocks")), float64(c("writeback.flushes"))))
	rep.set("writeback.stall_us_per_op", "us", perOp(w.histMerge("writeback.throttle.ns").Sum)/1e3)

	reqs := float64(c("blockio.submit.reqs"))
	rep.set("blockio.merge_factor", "ratio", ratio(reqs, float64(c("blockio.submit.issued"))))
	rep.set("blockio.batch_reqs", "count", ratio(reqs, float64(c("blockio.submit.batches"))))

	ds := w.disk
	busy := float64(ds.BusyNanos)
	rep.set("disk.requests_per_op", "count", perOp(ds.Requests))
	rep.set("disk.kb_per_request", "KB", ratio(float64(ds.BytesMoved())/1024, float64(ds.Requests)))
	rep.set("disk.busy_ms_per_op", "ms", perOp(ds.BusyNanos)/1e6)
	rep.set("disk.seek_frac", "ratio", ratio(float64(ds.SeekNanos), busy))
	rep.set("disk.rotate_frac", "ratio", ratio(float64(ds.RotateNanos), busy))
	rep.set("disk.transfer_frac", "ratio", ratio(float64(ds.TransferNanos), busy))
	rep.set("disk.onboard_hit_ratio", "ratio", ratio(float64(ds.CacheHits), float64(ds.Reads)))
	rep.set("disk.call_us", "us", quantile(devDur, 0.5))

	rt := w.rt
	rep.set("go.allocs_per_op", "count", ratio(rt[0], ops))
	rep.set("go.alloc_bytes_per_op", "bytes", ratio(rt[1], ops))
	rep.set("go.gc_cpu_frac", "ratio", ratio(rt[2], rt[3]))

	rep.set("trace.overhead_frac", "ratio", 1-ratio(opsPerS(t), opsPerS(u)))
	rep.set("trace.spans", "count", float64(len(spans)))
	n, _ := samples(u)
	rep.set("lat_samples", "count", float64(n))
	rep.set("lat_p99_us", "us", statsOf(u.clients).p99)
}
