package main

import (
	"os"
	"strings"
	"testing"
)

// exampleConfig extracts the example configuration from the package
// comment in main.go: the indented comment lines after "Example
// configuration:".
func exampleConfig(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	inExample := false
	for _, line := range strings.Split(string(src), "\n") {
		switch {
		case strings.Contains(line, "Example configuration:"):
			inExample = true
		case inExample && strings.HasPrefix(line, "//\t"):
			b.WriteString(strings.TrimPrefix(line, "//\t") + "\n")
		case inExample && b.Len() > 0:
			return b.String()
		}
	}
	t.Fatal("no example configuration in the package comment")
	return ""
}

func TestExampleConfigLoads(t *testing.T) {
	cfg, err := loadConfig([]byte(exampleConfig(t)))
	if err != nil {
		t.Fatalf("package comment example does not load: %v", err)
	}
	if cfg.Name != "ctrl0" || len(cfg.VirtualDatabases) != 1 || len(cfg.VirtualDatabases[0].Backends) != 2 {
		t.Fatalf("example decoded to %+v", cfg)
	}
	if vc := cfg.VirtualDatabases[0]; vc.Cache == nil || vc.Health == nil || vc.Backends[1].Weight != 2 {
		t.Fatalf("example's nested sections decoded to %+v", vc)
	}
}

// TestRemovedKeysAreRejected: options this version no longer has must fail
// loudly, naming the key, instead of starting with the setting ignored.
func TestRemovedKeysAreRejected(t *testing.T) {
	for key, doc := range map[string]string{
		"recoveryWorkers": `{"virtualDatabases": [{"name": "db", "recoveryWorkers": 1}]}`,
		"writeWorkers":    `{"virtualDatabases": [{"name": "db", "backends": [{"name": "db0", "writeWorkers": 4}]}]}`,
		"maxBytes":        `{"virtualDatabases": [{"name": "db", "cache": {"maxBytes": 1024}}]}`,
		"staleEpochs":     `{"virtualDatabases": [{"name": "db", "cache": {"staleEpochs": 1}}]}`,
	} {
		_, err := loadConfig([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s: err = %v, want an error naming the key", key, err)
		}
	}
}

func TestTrailingDataIsRejected(t *testing.T) {
	if _, err := loadConfig([]byte(`{"name": "a"} {"name": "b"}`)); err == nil {
		t.Fatal("a second JSON object after the configuration was accepted")
	}
	if _, err := loadConfig([]byte("{\"name\": \"a\"}\n\n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}
