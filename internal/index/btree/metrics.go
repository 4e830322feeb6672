package btree

import "github.com/mural-db/mural/internal/metrics"

// mNodeVisits counts B-tree node visits, i.e. every page the tree walks
// while searching, inserting or deleting. Together with the buffer-pool
// hit/miss counters this separates "pages visited" from "pages read from
// disk" on the /metrics endpoint.
var mNodeVisits = metrics.Default.Counter("mural_btree_node_visits_total")
