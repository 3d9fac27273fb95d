package main

import (
	"fmt"

	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/workloads"
)

// families are the seven workload topologies, at the shapes
// workloads.Suite uses; state is the per-module state scale in words.
var families = []string{"fmradio", "filterbank", "beamformer", "fft", "bitonic", "des", "mp3"}

func familyGraph(name string, state int64) (*sdf.Graph, error) {
	switch name {
	case "fmradio":
		return workloads.FMRadio(8, state)
	case "filterbank":
		return workloads.Filterbank(6, 4, state)
	case "beamformer":
		return workloads.Beamformer(6, 4, state)
	case "fft":
		return workloads.FFT(8, 32, state)
	case "bitonic":
		return workloads.BitonicSort(6, 4, state)
	case "des":
		return workloads.DES(16, state)
	case "mp3":
		return workloads.MP3Decoder(state)
	}
	return nil, fmt.Errorf("unknown family %q", name)
}

// schedulers are the daemon's scheduler names.
var schedulers = []string{"partitioned", "flat", "scaled", "demand", "kohli"}

// schedulerFor resolves a scheduler name the way the daemon does
// ("partitioned" picks the shape-appropriate variant).
func schedulerFor(name string, g *sdf.Graph, scale int64) (schedule.Scheduler, error) {
	switch name {
	case "flat":
		return schedule.FlatTopo{}, nil
	case "scaled":
		return schedule.Scaled{S: scale}, nil
	case "demand":
		return schedule.DemandDriven{}, nil
	case "kohli":
		return schedule.KohliGreedy{}, nil
	case "partitioned":
		switch {
		case g.IsPipeline():
			return schedule.PartitionedPipeline{}, nil
		case g.IsHomogeneous():
			return schedule.PartitionedHomogeneous{}, nil
		default:
			return schedule.PartitionedBatch{}, nil
		}
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}
