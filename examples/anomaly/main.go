// Anomaly: always-on anomaly detection over a synthetic sensor trace.
// Each reading is population-coded into one of eight value bins and
// pushed through a hand-wired two-neuron network — a "normal band"
// neuron listening to the low bins and an "anomaly band" neuron
// listening to the top bins — served as an open-ended pipeline Stream.
// A DecayCounter windowed decoder (fixed-point exponential decay, so
// decisions are bit-identical across engines) argmaxes the two decayed
// evidence levels under a margin gate: it declares "normal" in steady
// state, flips to "anomaly" a few ticks into an excursion, and abstains
// during the crossover when the evidence is genuinely ambiguous.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/neurogo/neurogo"
)

func main() {
	const (
		bins           = 8  // population-code resolution over [0, 1]
		anomalyBin     = 6  // readings in bins 6..7 (>= 0.75) are suspect
		period         = 64 // baseline sine period in ticks
		burst          = 6  // anomaly excursion length in ticks
		minGap, maxGap = 40, 120
		noise          = 0.03
		ticks          = 6000
		recover        = 12 // ticks after a burst an anomaly call still credits it
		clsNormal      = 0
		clsAnomaly     = 1
	)

	// Two relay neurons over one population-coded input bank: each
	// fires one tick after any of its bins spikes.
	net := neurogo.NewNetwork()
	in := net.AddInputBank("sensor/in", bins, neurogo.SourceProps{Type: 0, Delay: 1})
	proto := neurogo.DefaultNeuron()
	proto.SynWeight[0] = 1
	proto.Threshold = 1
	proto.NegSaturate = true
	bands := net.AddPopulation("sensor/bands", 2, proto)
	for b := 0; b < bins; b++ {
		cls := clsNormal
		if b >= anomalyBin {
			cls = clsAnomaly
		}
		net.Connect(in.Line(b), bands.ID(cls))
	}
	net.MarkOutput(bands.ID(clsNormal))
	net.MarkOutput(bands.ID(clsAnomaly))
	mapping, err := neurogo.Compile(net, neurogo.CompileOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Decay shift 2: a spike's weight halves every ~3 ticks, so the
	// margin gate (2 spike units) is crossed about 5 ticks into an
	// excursion and released as quickly after it — the soft window that
	// trades detection latency against false alarms.
	dec := neurogo.NewDecayCounterDecoder(2, 2)
	dec.MinLevel = 1
	dec.MinMargin = 2
	p, err := neurogo.NewPipeline(mapping,
		neurogo.WithEncoder(neurogo.NewBernoulliEncoder(1, 99)),
		neurogo.WithDecoder(dec),
		neurogo.WithClassMapper(func(id neurogo.NeuronID) int { return int(id - bands.First) }))
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	fmt.Printf("anomaly detector: %d value bins -> 2 band neurons on %d cores\n",
		bins, mapping.Stats.UsedCores)
	fmt.Printf("trace: sine baseline (period %d), %d-tick excursions, gaps in [%d, %d] ticks\n\n",
		period, burst, minGap, maxGap)

	sensor := neurogo.NewSensorStream(period, burst, minGap, maxGap, noise, 5)
	st := p.NewSession().Stream(context.Background())
	decCh := st.Decisions() // subscribe before the first tick

	type span struct{ start, end int64 }
	var bursts []span
	frame := make([]float64, bins)
	start := time.Now()
	for t := int64(0); t < ticks; t++ {
		v, bad := sensor.Tick()
		bin := int(v * bins)
		if bin >= bins {
			bin = bins - 1
		}
		for i := range frame {
			frame[i] = 0
		}
		frame[bin] = 1
		if _, err := st.Push(frame); err != nil {
			log.Fatal(err)
		}
		if bad {
			if n := len(bursts); n > 0 && bursts[n-1].end == t-1 {
				bursts[n-1].end = t
			} else {
				bursts = append(bursts, span{t, t})
			}
		}
	}
	if _, err := st.Drain(); err != nil {
		log.Fatal(err)
	}
	dur := time.Since(start)

	var anomalyTicks []int64
	normalCalls, abstained := 0, int64(ticks)
	for d := range decCh {
		abstained--
		if d.Class == clsAnomaly {
			anomalyTicks = append(anomalyTicks, d.Tick)
		} else {
			normalCalls++
		}
	}

	// Credit each burst with its first anomaly call inside
	// [start, end+recover]; anomaly calls outside every window are
	// false alarms.
	detected, falseAlarms := 0, 0
	var latencySum int64
	ai := 0
	for _, b := range bursts {
		for ai < len(anomalyTicks) && anomalyTicks[ai] < b.start {
			falseAlarms++
			ai++
		}
		first := int64(-1)
		for ai < len(anomalyTicks) && anomalyTicks[ai] <= b.end+recover {
			if first < 0 {
				first = anomalyTicks[ai]
			}
			ai++
		}
		if first >= 0 {
			detected++
			latencySum += first - b.start
		}
	}
	falseAlarms += len(anomalyTicks) - ai

	fmt.Printf("served %d readings in %v (%.0f ticks/s)\n",
		ticks, dur.Round(time.Millisecond), float64(ticks)/dur.Seconds())
	fmt.Printf("bursts %d, detected %d, missed %d, false alarms %d\n",
		len(bursts), detected, len(bursts)-detected, falseAlarms)
	if detected > 0 {
		fmt.Printf("detection latency: mean %.1f ticks from excursion onset (burst %d ticks, decay half-life ~3)\n",
			float64(latencySum)/float64(detected), burst)
	}
	fmt.Printf("decisions: %d normal, %d anomaly, abstained %d of %d ticks (margin gate %.0f spike units)\n",
		normalCalls, len(anomalyTicks), abstained, int64(ticks), dec.MinMargin)
}
