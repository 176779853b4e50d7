// Command cjdbc-controller runs a standalone controller from a JSON
// configuration file, serving its virtual databases over the cjdbc:// wire
// protocol and its monitoring surface over HTTP (the paper's JMX console
// equivalent).
//
//	go run ./cmd/cjdbc-controller -config controller.json
//
// Unknown keys and trailing data are errors. Example configuration:
//
//	{
//	  "name": "ctrl0",
//	  "id": 1,
//	  "listen": "127.0.0.1:25322",
//	  "admin": "127.0.0.1:8090",
//	  "virtualDatabases": [
//	    {
//	      "name": "mydb",
//	      "users": {"app": "secret"},
//	      "loadBalancer": "lprf",
//	      "earlyResponse": "first",
//	      "recoveryLog": "memory",
//	      "cache": {"granularity": "table", "maxEntries": 4096},
//	      "health": {"suspectThreshold": 3, "probeIntervalMs": 1000,
//	                 "autoReintegrate": true, "reintegrateBackoffMs": 500,
//	                 "reintegrateBackoffCapMs": 30000, "reintegrateAttempts": 10},
//	      "backends": [{"name": "db0"}, {"name": "db1", "weight": 2}],
//	      "group": "mydb-group"
//	    }
//	  ]
//	}
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cjdbc"
	"cjdbc/internal/admin"
)

// fileConfig is the on-disk configuration schema.
type fileConfig struct {
	Name             string          `json:"name"`
	ID               uint16          `json:"id"`
	Listen           string          `json:"listen"`
	Admin            string          `json:"admin"`
	VirtualDatabases []vdbFileConfig `json:"virtualDatabases"`
}

type vdbFileConfig struct {
	Name               string              `json:"name"`
	Users              map[string]string   `json:"users"`
	LoadBalancer       string              `json:"loadBalancer"`
	EarlyResponse      string              `json:"earlyResponse"`
	RecoveryLog        string              `json:"recoveryLog"`
	PartialReplication map[string][]string `json:"partialReplication"`
	Cache              *cacheFileConfig    `json:"cache"`
	Health             *healthFileConfig   `json:"health"`
	Backends           []backendFileConfig `json:"backends"`
	Group              string              `json:"group"`
}

// healthFileConfig configures failure monitoring and automatic
// re-integration; omitting the section keeps the classic one-strike
// behavior with no probing.
type healthFileConfig struct {
	SuspectThreshold        int  `json:"suspectThreshold"`
	ProbeIntervalMS         int  `json:"probeIntervalMs"`
	AutoReintegrate         bool `json:"autoReintegrate"`
	ReintegrateBackoffMS    int  `json:"reintegrateBackoffMs"`
	ReintegrateBackoffCapMS int  `json:"reintegrateBackoffCapMs"`
	ReintegrateAttempts     int  `json:"reintegrateAttempts"`
}

type cacheFileConfig struct {
	Granularity string `json:"granularity"`
	MaxEntries  int    `json:"maxEntries"`
	StalenessMS int    `json:"stalenessMs"`
}

type backendFileConfig struct {
	Name   string `json:"name"`
	DSN    string `json:"dsn"` // cjdbc:// URL for a nested controller; empty = in-memory engine
	Weight int    `json:"weight"`
	// Tables declares the subset of the virtual database's tables this
	// backend hosts (RAIDb-2 partial replication); empty hosts everything.
	// Requires partial replication on the virtual database (a
	// "partialReplication" map, or any backend declaring tables).
	Tables []string `json:"tables"`
}

func main() {
	configPath := flag.String("config", "", "path to the controller configuration JSON")
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "cjdbc-controller: -config is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	cfg, err := loadConfig(raw)
	if err != nil {
		fatal(fmt.Errorf("parse %s: %w", *configPath, err))
	}

	ctrl := cjdbc.NewController(cfg.Name, cfg.ID)
	defer ctrl.Close()
	for _, vc := range cfg.VirtualDatabases {
		partialByTables := false
		for _, bc := range vc.Backends {
			if len(bc.Tables) > 0 {
				partialByTables = true
				break
			}
		}
		vcfg := cjdbc.VirtualDatabaseConfig{
			Name:               vc.Name,
			Users:              vc.Users,
			LoadBalancer:       vc.LoadBalancer,
			EarlyResponse:      vc.EarlyResponse,
			RecoveryLogPath:    vc.RecoveryLog,
			PartialReplication: vc.PartialReplication,
			PartialByTables:    partialByTables,
		}
		if vc.Cache != nil {
			vcfg.Cache = &cjdbc.CacheConfig{
				Granularity: vc.Cache.Granularity,
				MaxEntries:  vc.Cache.MaxEntries,
				Staleness:   time.Duration(vc.Cache.StalenessMS) * time.Millisecond,
			}
		}
		if vc.Health != nil {
			vcfg.Health = &cjdbc.HealthConfig{
				SuspectThreshold:      vc.Health.SuspectThreshold,
				ProbeInterval:         time.Duration(vc.Health.ProbeIntervalMS) * time.Millisecond,
				AutoReintegrate:       vc.Health.AutoReintegrate,
				ReintegrateBackoff:    time.Duration(vc.Health.ReintegrateBackoffMS) * time.Millisecond,
				ReintegrateBackoffCap: time.Duration(vc.Health.ReintegrateBackoffCapMS) * time.Millisecond,
				ReintegrateAttempts:   vc.Health.ReintegrateAttempts,
			}
		}
		vdb, err := ctrl.CreateVirtualDatabase(vcfg)
		if err != nil {
			fatal(err)
		}
		for _, bc := range vc.Backends {
			var opts []cjdbc.BackendOption
			if bc.Weight > 0 {
				opts = append(opts, cjdbc.WithWeight(bc.Weight))
			}
			if len(bc.Tables) > 0 {
				opts = append(opts, cjdbc.WithTables(bc.Tables...))
			}
			if bc.DSN != "" {
				err = vdb.AddClusterBackend(bc.Name, bc.DSN, opts...)
			} else {
				err = vdb.AddInMemoryBackend(bc.Name, opts...)
			}
			if err != nil {
				fatal(err)
			}
		}
		if err := vdb.ValidatePlacement(); err != nil {
			fatal(err)
		}
		if vc.Group != "" {
			if err := vdb.JoinGroup(vc.Group, cfg.Name); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("virtual database %q loaded with %d backend(s)\n", vc.Name, len(vc.Backends))
	}

	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:25322"
	}
	addr, err := ctrl.ListenAndServe(cfg.Listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("controller %q serving cjdbc:// on %s\n", cfg.Name, addr)

	if cfg.Admin != "" {
		adm := admin.New(ctrl.Internal())
		adminAddr, err := adm.Listen(cfg.Admin)
		if err != nil {
			fatal(err)
		}
		defer adm.Close()
		fmt.Printf("admin console (JMX equivalent) on http://%s/vdbs\n", adminAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

// loadConfig decodes a configuration file strictly: unknown keys (typos, or
// options this version no longer has) and trailing data are errors.
func loadConfig(raw []byte) (fileConfig, error) {
	var cfg fileConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return fileConfig{}, err
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return fileConfig{}, errors.New("trailing data after the configuration object")
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cjdbc-controller: %v\n", err)
	os.Exit(1)
}
