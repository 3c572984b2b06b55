// Command awgsim runs one benchmark under one scheduling policy on the
// simulated GPU and prints the run's metrics.
//
// Usage:
//
//	awgsim -bench SPM_G -policy AWG
//	awgsim -bench FAM_G -policy Timeout-50k -oversubscribe
//	awgsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"awgsim/awg"
	"awgsim/internal/kernels"
)

func main() {
	var (
		bench   = flag.String("bench", "SPM_G", "benchmark name (see -list)")
		policy  = flag.String("policy", "AWG", "scheduling policy (see -list); Sleep-Xk and Timeout-Xk parameterized forms accepted")
		oversub = flag.Bool("oversubscribe", false, "preempt one CU 50us into the kernel (the paper's dynamic resource-loss experiment)")
		iters   = flag.Int("iters", 0, "synchronization rounds per WG (0 = default)")
		wgs     = flag.Int("wgs", 0, "work-groups to launch (0 = exactly fill the GPU)")
		seed    = flag.Uint64("seed", 0, "jitter-stream seed; equal seeds replay bit-identically (0 = historical stream)")
		list    = flag.Bool("list", false, "list benchmarks and policies, then exit")
		asJSON  = flag.Bool("json", false, "emit the full result as JSON")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:", strings.Join(awg.Benchmarks(), " "))
		fmt.Println("apps:      ", strings.Join(awg.AppBenchmarks(), " "))
		fmt.Println("policies:  ", strings.Join(awg.Policies(), " "))
		return
	}

	cfg := awg.Config{Benchmark: *bench, Policy: *policy, Oversubscribe: *oversub, Seed: *seed}
	if *iters > 0 || *wgs > 0 {
		p := kernels.DefaultParams()
		if *iters > 0 {
			p.Iters = *iters
		}
		if *wgs > 0 {
			p.NumWGs = *wgs
		}
		cfg.Params = p
	}
	res, err := awg.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "awgsim:", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "awgsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("policy           %s\n", res.Policy)
	if res.Deadlocked {
		fmt.Printf("result           DEADLOCK after %d cycles (%d WGs completed)\n",
			res.Cycles, res.Completed)
		if res.Diagnosis != nil {
			fmt.Print(res.Diagnosis.String())
		}
	} else {
		fmt.Printf("runtime          %d cycles (%.1f us at 2 GHz)\n", res.Cycles, float64(res.Cycles)/2000)
	}
	fmt.Printf("completed WGs    %d\n", res.Completed)
	fmt.Printf("atomics          %d (bank wait %d cycles)\n", res.Atomics, res.BankWait)
	fmt.Printf("exec breakdown   running %d / waiting %d cycles (max single wait %d)\n",
		res.Breakdown.Running, res.Breakdown.Waiting, res.MaxWait)
	fmt.Printf("waits            stalls %d, resumes %d (wasted %d), timeouts %d\n",
		res.Stalls, res.Resumes, res.WastedResumes, res.Timeouts)
	fmt.Printf("context switches out %d / in %d (%d bytes moved)\n",
		res.SwitchesOut, res.SwitchesIn, res.ContextBytes)
	fmt.Printf("syncmon peak     %d conditions, %d waiting WGs, %d monitored vars\n",
		res.MaxConditions, res.MaxWaitingWGs, res.MaxMonitoredVar)
	fmt.Printf("monitor log      %d spills, %d rejects, peak %d entries\n",
		res.LogSpills, res.LogRejects, res.MaxLogEntries)
	if res.PredictAll+res.PredictOne > 0 {
		fmt.Printf("awg predictor    resume-all %d, resume-one %d, bloom resets %d\n",
			res.PredictAll, res.PredictOne, res.BloomResets)
	}
	fmt.Printf("wg context       %.2f KB\n", res.ContextKB)
	fmt.Printf("sync vars        %d (%d conditions, max %d waiters/cond, %.1f updates/met)\n",
		res.SyncVars, res.VarStats.Conditions, res.VarStats.MaxWaiters, res.VarStats.UpdatesPerCond)
}
