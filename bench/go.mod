module cjdbc/bench

go 1.21

require cjdbc v0.0.0

replace cjdbc => ../
