// Command pran-agent runs one PRAN pool server: it registers with the
// controller, runs the measured uplink data plane for whatever cells it is
// assigned (emulating their RRH input locally), and streams load reports.
//
// Usage:
//
//	pran-agent -controller 127.0.0.1:7100 -id 1 -cores 2
package main

import (
	"flag"
	"log"
	"math"
	"net/http"

	"pran/internal/dataplane"
	"pran/internal/node"
	"pran/internal/phy"
	"pran/internal/telemetry"
)

func main() {
	addr := flag.String("controller", "127.0.0.1:7100", "controller address")
	id := flag.Uint("id", 1, "server identity")
	cores := flag.Int("cores", 2, "worker cores to run and advertise")
	prb := flag.Int("prb", 6, "cell bandwidth assumed for deadline calibration")
	scale := flag.Float64("scale", 0, "deadline scale (0 = host-calibrated)")
	seed := flag.Int64("seed", 1, "local RRH emulation seed")
	telemetryAddr := flag.String("telemetry", "", "HTTP address serving the telemetry snapshot (empty = off)")
	noTelemetry := flag.Bool("no-telemetry", false, "disable runtime telemetry recording entirely")
	noReconnect := flag.Bool("no-reconnect", false, "exit on a lost controller connection instead of reconnecting")
	flag.Parse()

	if *scale <= 0 {
		s, err := dataplane.CalibrateDeadlineScale(phy.Bandwidth(*prb), 16)
		if err != nil {
			log.Fatal(err)
		}
		*scale = math.Ceil(s)
		log.Printf("calibrated deadline scale: x%.0f", *scale)
	}
	an, err := node.NewAgentNode(node.AgentConfig{
		ControllerAddr: *addr,
		ServerID:       uint32(*id),
		Cores:          *cores,
		Pool: dataplane.Config{
			Policy: dataplane.EDF, DeadlineScale: *scale, AbandonLate: true,
			DisableTelemetry: *noTelemetry,
		},
		Seed:        *seed,
		NoReconnect: *noReconnect,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer an.Close()
	if *telemetryAddr != "" {
		reg := an.Telemetry()
		if reg == nil {
			log.Fatal("-telemetry requires telemetry (drop -no-telemetry)")
		}
		go func() {
			log.Printf("telemetry endpoint on http://%s/ (?format=json for JSON)", *telemetryAddr)
			log.Fatal(http.ListenAndServe(*telemetryAddr, telemetry.Handler(reg.Snapshot)))
		}()
	}
	log.Printf("pran-agent %d connected to %s (%d cores)", *id, *addr, *cores)
	if err := an.Run(); err != nil {
		log.Fatal(err)
	}
	st := an.Pool().Stats()
	log.Printf("done: completed=%d misses=%d", st.Completed, st.DeadlineMisses)
}
