module hopi/benchmark

go 1.24

require hopi v0.0.0

replace hopi => ../
