package main

// layerMetric is one per-layer metric of the traced run. BENCHMARK.json
// lists the same names (a test keeps the two in step).
type layerMetric struct {
	name   string
	unit   string
	better string
}

// perLayer is every per-layer metric, named after the modules under
// internal/. A layer the workload does not exercise reports 0. Timings
// are mean self time per call of that layer's span; "_per_op" counts are
// per op of the workload (a change, a storm, a cycle or a read).
var perLayer = []layerMetric{
	{"core.sync_fleet_ms", "ms", "lower"},
	{"core.untraced_ms", "ms", "lower"},
	{"core.provision_ms", "ms", "lower"},
	{"design.change_ms", "ms", "lower"},
	{"design.objects_per_change", "count", "lower"},
	{"relstore.tx_commits_per_op", "count", "lower"},
	{"fbnet.queries_planned_per_op", "count", "lower"},
	{"relstore.replicate_ms", "ms", "lower"},
	{"relstore.replication_lag_max", "count", "lower"},
	{"configgen.generate_ms", "ms", "lower"},
	{"configgen.devices_per_op", "count", "lower"},
	{"configgen.device_busy_us", "us", "lower"},
	{"configgen.roundtrips_per_op", "count", "lower"},
	{"configgen.derive_hit_ratio", "ratio", "higher"},
	{"configgen.render_hit_ratio", "ratio", "higher"},
	{"verify.check_ms", "ms", "lower"},
	{"verify.devices_checked_per_change", "count", "lower"},
	{"verify.rejections", "count", "lower"},
	{"deploy.deploy_ms", "ms", "lower"},
	{"deploy.commits_per_op", "count", "lower"},
	{"deploy.commit_busy_ms", "ms", "lower"},
	{"deploy.retries", "count", "lower"},
	{"deploy.rollbacks", "count", "lower"},
	{"netsim.mgmt_ops_per_op", "count", "lower"},
	{"netsim.inject_ms", "ms", "lower"},
	{"netsim.cable_ms", "ms", "lower"},
	{"monitor.checks_per_op", "count", "lower"},
	{"monitor.collect_ms", "ms", "lower"},
	{"monitor.polls_per_cycle", "count", "lower"},
	{"monitor.poll_errors", "count", "lower"},
	{"monitor.evaluate_ms", "ms", "lower"},
	{"monitor.evaluations_per_cycle", "count", "lower"},
	{"monitor.alarms_fired_per_cycle", "count", "lower"},
	{"monitor.alarms_firing", "count", "lower"},
	{"monitor.timeline_entries", "count", "lower"},
	{"monitor.correlated_per_alarm", "count", "lower"},
	{"monitor.false_alarms", "count", "lower"},
	{"reconcile.advance_ms", "ms", "lower"},
	{"reconcile.remediated_per_storm", "count", "lower"},
	{"reconcile.converge_ratio", "ratio", "higher"},
	{"reconcile.quarantined", "count", "lower"},
	{"reconcile.budget_trips", "count", "lower"},
	{"reconcile.journal_events_per_op", "count", "lower"},
	{"reconcile.verify_devices_ms", "ms", "lower"},
	{"reconcile.check_errors", "count", "lower"},
	{"reconcile.setup_check_errors", "count", "lower"},
	{"service.get_point_us", "us", "lower"},
	{"service.get_scan_us", "us", "lower"},
	{"service.rows_per_read", "count", "lower"},
	{"service.write_ms", "ms", "lower"},
	{"service.torn_reads", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KiB", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.sum_error_pct", "%", "lower"},
}

// sumTolerancePct is how far, in percent of an op's duration, the self
// times of its spans may sum away from the op before the traced run
// fails its own check.
const sumTolerancePct = 1.0

// layerMetrics reduces the spans, the telemetry and runtime deltas of the
// measured window, and the workload's own figures to perLayer.
func (rc *runCtx) layerMetrics() {
	self := selfTimes(rc.tr.spans)
	st := byName(rc.tr.spans, self)
	ops := float64(rc.attempted)
	d := func(name string) float64 { return rc.last.delta(rc.base, name) }
	l := rc.layer
	set := func(name string, v float64) { l[name] = v }

	set("core.sync_fleet_ms", meanMs(st, "core.sync_fleet"))
	set("core.untraced_ms", meanMs(st, "core.generate_and_deploy"))
	set("core.provision_ms", meanMs(st, "core.provision"))
	set("design.change_ms", meanMs(st, "design.change"))
	set("design.objects_per_change", ratio(rc.acc["design.objects"], rc.acc["design.changes"]))

	set("relstore.tx_commits_per_op", d("robotron_relstore_tx_commits_total")/ops)
	set("fbnet.queries_planned_per_op", d("robotron_fbnet_queries_planned_total")/ops)
	set("relstore.replicate_ms", meanMs(st, "relstore.replicate"))
	set("relstore.replication_lag_max", rc.acc["relstore.lag_max"])

	set("configgen.generate_ms", meanMs(st, "configgen.generate"))
	set("configgen.devices_per_op", d("robotron_generate_device_seconds_count")/ops)
	set("configgen.device_busy_us", 1e6*ratio(d("robotron_generate_device_seconds_sum"), d("robotron_generate_device_seconds_count")))
	set("configgen.roundtrips_per_op", d("robotron_generate_roundtrips_total")/ops)
	hits, derives := d("robotron_generate_derive_hits_total"), d("robotron_generate_derives_total")
	set("configgen.derive_hit_ratio", ratio(hits, hits+derives))
	rhits, renders := d("robotron_generate_render_hits_total"), d("robotron_generate_renders_total")
	set("configgen.render_hit_ratio", ratio(rhits, rhits+renders))

	set("verify.check_ms", meanMs(st, "verify.check"))
	set("verify.devices_checked_per_change", ratio(rc.acc["verify.devices"], rc.acc["verify.gates"]))
	set("verify.rejections", d("robotron_verify_rejections_total"))

	set("deploy.deploy_ms", meanMs(st, "deploy.deploy"))
	set("deploy.commits_per_op", d("robotron_deploy_commits_total")/ops)
	set("deploy.commit_busy_ms", 1e3*ratio(d("robotron_deploy_commit_seconds_sum"), d("robotron_deploy_commit_seconds_count")))
	set("deploy.retries", d("robotron_deploy_retries_total"))
	set("deploy.rollbacks", d("robotron_deploy_rollbacks_total"))

	set("netsim.mgmt_ops_per_op", float64(rc.lastMgmt-rc.baseMgmt)/ops)
	set("netsim.inject_ms", meanMs(st, "netsim.inject"))
	set("netsim.cable_ms", meanMs(st, "netsim.cable"))

	set("monitor.checks_per_op", d("robotron_monitor_checks_total")/ops)
	set("monitor.collect_ms", meanMs(st, "monitor.collect"))
	set("monitor.polls_per_cycle", d("robotron_monitor_polls_total")/ops)
	set("monitor.poll_errors", d("robotron_monitor_poll_errors_total"))
	set("monitor.evaluate_ms", meanMs(st, "monitor.evaluate"))
	set("monitor.evaluations_per_cycle", ratio(rc.acc["monitor.rules_evaluated"], ops))
	set("monitor.alarms_fired_per_cycle", d("robotron_alarms_fired_total")/ops)
	set("monitor.alarms_firing", rc.last["robotron_alarms_firing"])
	set("monitor.timeline_entries", rc.acc["monitor.timeline_entries"])
	set("monitor.correlated_per_alarm", rc.acc["monitor.correlated_per_alarm"])
	set("monitor.false_alarms", rc.acc["monitor.false_alarms"])

	set("reconcile.advance_ms", meanMs(st, "reconcile.advance"))
	set("reconcile.remediated_per_storm", ratio(float64(rc.lastRec.Remediated-rc.baseRec.Remediated), rc.acc["reconcile.storms"]))
	set("reconcile.converge_ratio", ratio(float64(rc.lastRec.Converged-rc.baseRec.Converged), float64(rc.lastRec.Detected-rc.baseRec.Detected)))
	set("reconcile.quarantined", float64(rc.lastRec.Quarantined-rc.baseRec.Quarantined))
	set("reconcile.budget_trips", float64(rc.lastRec.BudgetTrips-rc.baseRec.BudgetTrips))
	set("reconcile.journal_events_per_op", float64(rc.lastJournal-rc.baseJournal)/ops)
	set("reconcile.verify_devices_ms", meanMs(st, "reconcile.verify_devices"))
	set("reconcile.check_errors", float64(rc.lastRec.CheckErrors-rc.baseRec.CheckErrors))
	set("reconcile.setup_check_errors", float64(rc.w.setupCheckErrors))

	set("service.get_point_us", 1e3*meanMs(st, "service.get_point"))
	set("service.get_scan_us", 1e3*meanMs(st, "service.get_scan"))
	set("service.rows_per_read", ratio(rc.acc["service.rows"], rc.acc["service.reads"]))
	set("service.write_ms", meanMs(st, "service.write"))
	set("service.torn_reads", rc.acc["service.torn_reads"])
	set("loadgen.late_p99_ms", rc.acc["loadgen.late_p99_ms"])
	set("loadgen.backlog_max", rc.acc["loadgen.backlog_max"])

	set("runtime.alloc_kb_per_op", float64(rc.lastMem.TotalAlloc-rc.baseMem.TotalAlloc)/1024/ops)
	set("runtime.gc_cycles_per_op", float64(rc.lastMem.NumGC-rc.baseMem.NumGC)/ops)

	set("trace.overhead_pct", overheadPct(rc.tr))
	set("trace.sum_error_pct", 100*sumError(rc.tr.spans, self))
}
