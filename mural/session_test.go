package mural

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// showSetting runs SHOW name on a session and returns its one value.
func showSetting(t *testing.T, s *Session, name string) string {
	t.Helper()
	res, err := s.ExecContext(context.Background(), `SHOW `+name)
	if err != nil {
		t.Fatalf("SHOW %s: %v", name, err)
	}
	if len(res.Rows) != 1 || len(res.Cols) != 1 || res.Cols[0] != name {
		t.Fatalf("SHOW %s = cols %v rows %v, want one value", name, res.Cols, res.Rows)
	}
	return res.Rows[0][0].Text()
}

// Every name SET knows: SHOW reports the effective value before any SET, a
// valid value round-trips through SHOW, an invalid one fails naming the
// parameter and leaves the session as it was, and no other session sees
// either.
func TestSettingsTable(t *testing.T) {
	e, err := Open(Config{Workers: 3, QueryTimeout: 7 * time.Millisecond, MaxQueryMem: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cases := []struct {
		name, def, value, shown string
		bad                     []string
	}{
		{"workers", "3", "5", "5", []string{"abc", "0", "-2", "1.5"}},
		{"statement_timeout", "7", "250", "250", []string{"-1", "soon"}},
		{"max_query_mem", "1048576", "4096", "4096", []string{"-1", "lots"}},
		{"enable_hashjoin", "on", "off", "off", []string{"maybe", "2"}},
		{"enable_indexscan", "on", "false", "off", []string{"maybe"}},
		{"enable_mtree", "on", "OFF", "off", []string{"maybe"}},
		{"enable_mdi", "on", "0", "off", []string{"maybe"}},
		{"enable_qgram", "on", "off", "off", []string{"maybe"}},
		{"force_join_order", "", "b, a, p", "b,a,p", []string{"5", "'a b'"}},
		{"lexequal_threshold", "2", "3", "3", []string{"-1", "abc"}},
	}
	if len(cases) != len(settingTable) {
		t.Fatalf("table covers %d settings, engine knows %d", len(cases), len(settingTable))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, other := e.Session(), e.Session()
			if got := showSetting(t, s, tc.name); got != tc.def {
				t.Errorf("SHOW %s on a fresh session = %q, want %q", tc.name, got, tc.def)
			}
			if _, err := s.ExecContext(context.Background(), `SET `+tc.name+` = `+tc.value); err != nil {
				t.Fatalf("SET %s = %s: %v", tc.name, tc.value, err)
			}
			if got := showSetting(t, s, tc.name); got != tc.shown {
				t.Errorf("SHOW %s after SET = %q, want %q", tc.name, got, tc.shown)
			}
			for _, bad := range tc.bad {
				_, err := s.ExecContext(context.Background(), `SET `+tc.name+` = `+bad)
				if err == nil || !strings.Contains(err.Error(), tc.name) {
					t.Errorf("SET %s = %s: err = %v, want an error naming the parameter", tc.name, bad, err)
				}
				if got := showSetting(t, s, tc.name); got != tc.shown {
					t.Errorf("failed SET %s = %s changed the session: %q, want %q", tc.name, bad, got, tc.shown)
				}
			}
			if got := showSetting(t, other, tc.name); got != tc.def {
				t.Errorf("another session sees SHOW %s = %q, want %q", tc.name, got, tc.def)
			}
		})
	}
}

// An unknown name is an error naming it, for SET and SHOW alike (shards, the
// setting of the removed sharded execution, is one), and with
// Workers unset SHOW workers reports the GOMAXPROCS budget the planner uses.
func TestSettingNamesAndDefaults(t *testing.T) {
	e := memEngine(t)
	for _, name := range []string{"foo", "shards"} {
		for _, q := range []string{`SET ` + name + ` = bar`, `SHOW ` + name} {
			if _, err := e.Exec(q); err == nil || !strings.Contains(err.Error(), `unrecognized configuration parameter "`+name+`"`) {
				t.Errorf("%s: err = %v, want unrecognized configuration parameter", q, err)
			}
		}
	}
	if got, want := showSetting(t, e.sess, "workers"), strconv.Itoa(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("SHOW workers = %q, want %q", got, want)
	}
}

// SETs racing on one session all land, and statements running beside them
// each see one whole snapshot: a SET swaps the settings value copy-on-write
// and retries when another SET won.
func TestConcurrentSetsOnOneSession(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (id INT)`)
	sets := map[string]string{"enable_hashjoin": "off", "enable_indexscan": "off", "enable_mtree": "off",
		"enable_mdi": "off", "enable_qgram": "off", "lexequal_threshold": "3", "workers": "1"}
	var wg sync.WaitGroup
	for name, value := range sets {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := e.Exec(`SET ` + name + ` = ` + value); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := e.Exec(`SELECT count(*) FROM t`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for name, want := range sets {
		if got := showSetting(t, e.sess, name); got != want {
			t.Errorf("SHOW %s = %q after concurrent SETs, want %q", name, got, want)
		}
	}
}
