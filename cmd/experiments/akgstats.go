package main

import (
	"fmt"

	"repro/internal/ckg"
	"repro/internal/detect"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/tablefmt"
	"repro/internal/tracegen"
)

// runAKGStats reproduces the Section 7.4 reduction analysis: how much
// smaller the AKG is than the full CKG over the same window, what fraction
// of keywords ever show burstiness, the average AKG degree and average
// cluster size. Paper figures: AKG edges < 2% of CKG edges, < 5% of nodes
// bursty, average degree < 6, average cluster size < 7.
func runAKGStats() {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(*flagSeed, *flagN))
	d := detect.New(detect.Config{})
	// The full CKG over the same window, fed the same keyword lists.
	full := ckg.New(d.AKG().Config().Window)
	d.SetOnResolved(full.AddQuantum)

	var (
		quanta         int
		nodeRatioSum   float64
		edgeRatioSum   float64
		degreeSum      float64
		degreeN        int
		clusterSizeSum float64
		clusterN       int
		peakCKGNodes   int
		peakCKGEdges   int
		peakAKGNodes   int
		peakAKGEdges   int
		ckgEdgeSamples float64
		akgEdgeSamples float64
		ckgNodeSamples float64
		akgNodeSamples float64
	)
	err := d.Run(stream.NewSliceSource(msgs), func(res *detect.QuantumResult) {
		quanta++
		ckgNodes, ckgEdges := full.NodeCount(), full.EdgeCount()
		if ckgNodes > 0 {
			nodeRatioSum += float64(res.AKGNodes) / float64(ckgNodes)
		}
		if ckgEdges > 0 {
			edgeRatioSum += float64(res.AKGEdges) / float64(ckgEdges)
		}
		ckgNodeSamples += float64(ckgNodes)
		akgNodeSamples += float64(res.AKGNodes)
		ckgEdgeSamples += float64(ckgEdges)
		akgEdgeSamples += float64(res.AKGEdges)
		if ckgNodes > peakCKGNodes {
			peakCKGNodes = ckgNodes
		}
		if ckgEdges > peakCKGEdges {
			peakCKGEdges = ckgEdges
		}
		if res.AKGNodes > peakAKGNodes {
			peakAKGNodes = res.AKGNodes
		}
		if res.AKGEdges > peakAKGEdges {
			peakAKGEdges = res.AKGEdges
		}
		g := d.AKG().Engine().Graph()
		g.ForEachNode(func(n dygraph.NodeID) {
			degreeSum += float64(g.Degree(n))
			degreeN++
		})
		for _, c := range d.AKG().Engine().Clusters() {
			clusterSizeSum += float64(c.NodeCount())
			clusterN++
		}
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	t := tablefmt.New("AKG vs CKG reduction (§7.4)", "Metric", "Measured", "Paper")
	t.Row("AKG nodes / CKG nodes (avg)", fmt.Sprintf("%.2f%%", 100*nodeRatioSum/float64(quanta)), "<5%")
	t.Row("AKG edges / CKG edges (avg)", fmt.Sprintf("%.2f%%", 100*edgeRatioSum/float64(quanta)), "<2%")
	t.Row("avg AKG degree", fmt.Sprintf("%.2f", safeDiv(degreeSum, float64(degreeN))), "<6")
	t.Row("avg cluster size", fmt.Sprintf("%.2f", safeDiv(clusterSizeSum, float64(clusterN))), "<7")
	t.Row("peak CKG size", fmt.Sprintf("%d nodes / %d edges", peakCKGNodes, peakCKGEdges), "—")
	t.Row("peak AKG size", fmt.Sprintf("%d nodes / %d edges", peakAKGNodes, peakAKGEdges), "—")
	fmt.Println(t)
	fmt.Printf("windowed totals: CKG carried %.0f node-quanta / %.0f edge-quanta; AKG %.0f / %.0f\n",
		ckgNodeSamples, ckgEdgeSamples, akgNodeSamples, akgEdgeSamples)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
